"""The text layer of both loaders: bytes to tokens, keys, id numbers and endpoint or label arrays.

:func:`_load` reads a source for either loader, through its format's token
path (:func:`_token_edges`, :func:`_token_coloring`) or its line pass. The
token paths check no rule of either format and raise nothing.
"""

from __future__ import annotations

import re
from typing import IO, Callable, Iterator, TypeVar, Union

import numpy as np

TextSource = Union[str, bytes, IO]
_T = TypeVar("_T")

_LINE_END = re.compile(rb"[\n\r]")
# line ends to str.splitlines() that a comment runs past: U+0085, U+2028 and U+2029
_ODD_LINE_ENDS = tuple(c.encode("utf-8") for c in "\x85\u2028\u2029")
_PRINTABLE = bytes(range(0x20, 0x7F)) + b"\t\n\r"  # printable ASCII, the space, tab, LF and CR
_SPACE, _TAB, _LF, _CR, _V, _ZERO, _HASH = map(ord, " \t\n\rv0#")
# The bytes a '#' comment stops at: those that str.splitlines() ends a line at.
_COMMENT_END = np.zeros(256, dtype=bool)
_COMMENT_END[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = True
_MAX_DIGITS = 9  # every canonical id of up to 9 digits fits in int32
# The bytes of text tokenized, and the tokens keyed, at a time: small enough that
# each step's temporaries stay in cache and the loaders' peak memory stays near
# that of the text and the arrays they return, large enough that numpy's cost per
# call is small (picked by measurement; CHANGES.md has the figures).
_CHUNK = 1 << 15


def _load(source: TextSource, token_path: Callable[[bytes], _T | None], line_pass: Callable[[str], _T],
          error: Callable[[str, int], Exception]) -> _T:
    """What a loader returns for ``source``: its token path's result, or its line pass's.

    The text is read once, without one leading UTF-8 byte-order mark. Its
    UTF-8 bytes (:func:`_utf8`) go to ``token_path``; where there are none,
    or the token path returns None, the general path runs ``line_pass`` over
    the text decoded as UTF-8. At the first byte that is not UTF-8, the line
    pass reads the complete lines above it first, so that a bad line there
    is reported ahead of it; then ``error(message, line)`` names the byte
    and its line.
    """
    data = source if isinstance(source, (str, bytes)) else source.read()
    data = data.removeprefix(b"\xef\xbb\xbf" if isinstance(data, bytes) else "\ufeff")
    utf8 = _utf8(data)
    found = None if utf8 is None else token_path(utf8)
    del utf8  # the encoded copy of a str is not kept through the line pass
    if found is not None:
        return found
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        bad = exc
    else:
        return line_pass(text)
    lines = (bad.object[: bad.start].decode("utf-8") + "#").splitlines()  # the "#" stands on the bad byte's line
    line_pass("\n".join(lines[:-1]))
    raise error(f"byte {bad.object[bad.start]:#04x} is not UTF-8 ({bad.reason})", len(lines)) from bad


def _utf8(data: str | bytes) -> bytes | None:
    """The UTF-8 bytes of ``data``, which the token paths read, or None.

    None when ``data`` is not UTF-8, or holds U+0085, U+2028 or U+2029, line
    ends to ``str.splitlines()`` that a comment runs past in the tokenizer,
    which ends comments at ASCII bytes only (:data:`_COMMENT_END`).
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            return None
    elif not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not data.isascii() and any(end in data for end in _ODD_LINE_ENDS):
        return None
    return data


def _line_ends(data: bytes, stop: int | None = None) -> int:
    """The line ends in ``data[:stop]``, LF, CR and CR LF, each counted once as ``str.splitlines()`` does.

    The LFs are counted :data:`_CHUNK` bytes at a time, which is faster
    than ``bytes.count`` and makes only chunk-sized masks.
    """
    raw = np.frombuffer(data, dtype=np.uint8)[:stop]
    stop = raw.size
    ends = sum(int(np.count_nonzero(raw[at : at + _CHUNK] == _LF)) for at in range(0, stop, _CHUNK))
    if data.find(b"\r", 0, stop) >= 0:
        ends += data.count(b"\r", 0, stop) - data.count(b"\r\n", 0, stop)
    return ends


def _tokenize(data: bytes, tabbed: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The whole token stream of :func:`_token_blocks` at once, or None where the stream declines the text.

    ``data`` is UTF-8 (:func:`_utf8`). Returns a uint8 view of it, and the
    start offset and the length of every token in it.

    Memory: beside the text, the two token arrays are all that grow with the
    input, 8 bytes a token. They are allocated once, two entries per line,
    and filled one piece-sized block at a time.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    start = np.empty(2 * (_line_ends(data) + 1), dtype=np.int32 if raw.size < 2**31 else np.int64)
    length = np.empty_like(start)
    count = 0
    for tokens in _token_blocks(data, tabbed, 1):
        if tokens is None:
            return None
        size = tokens[0].size
        start[count : count + size], length[count : count + size] = tokens
        count += size
    return raw, start[:count], length[:count]


def _token_blocks(data: bytes, tabbed: bool, size: int) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
    """The start offset and the length of every token of ``data``, in blocks of at least ``size`` tokens.

    The one token stream of both token paths. ``data`` is UTF-8
    (:func:`_utf8`). '#' starts a comment, which runs to the next line end
    of ``str.splitlines()``, and the rest must be printable ASCII, spaces,
    tabs, LF and CR. LF and CR end lines, and a token is a run of bytes
    above the space. The arrays are int32 below 2 GiB of text. At the first
    line with one or three tokens, at a byte outside a comment that is not
    taken, or, with ``tabbed``, where a line's first tab does not stand
    between its two tokens, None is yielded and the blocks end.

    The text is cut into pieces of about :data:`_CHUNK` bytes after a line
    end, so every block is whole lines; the first piece with a token is a
    block of its own, so that a file whose ids are of another form than the
    caller keys is told at once. Each piece is copied with its comments overwritten by
    spaces (:func:`_blank_comments`), so the offsets are those in ``data``,
    and its byte masks and offsets (:func:`_chunk_tokens`) are freed before
    a block is yielded: the text is never copied whole.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    dtype = np.int32 if raw.size < 2**31 else np.int64
    starts, lengths, count, least, at = [], [], 0, 1, 0
    while at < raw.size:
        cut = _LINE_END.search(data, at + _CHUNK - 1)
        end = raw.size if cut is None else cut.end()
        text = np.empty(end - at + 1, dtype=np.uint8)
        text[:-1] = raw[at:end]
        text[-1] = _LF  # a closing line end, so that every token stops inside the text
        if data.find(b"#", at, end) >= 0:
            _blank_comments(text)
        tokens = None if text.tobytes().translate(None, _PRINTABLE) else _chunk_tokens(text, tabbed)
        if tokens is None:
            yield None
            return
        first, stop = tokens
        stop -= first
        starts.append(np.add(first, at, dtype=dtype, casting="unsafe"))
        lengths.append(stop.astype(dtype))
        del text, tokens, first, stop
        count += starts[-1].size
        at = end
        if count and (count >= least or at == raw.size):
            block, starts, lengths, count, least = (np.concatenate(starts), np.concatenate(lengths)), [], [], 0, size
            yield block


def _blank_comments(text: np.ndarray) -> None:
    """Overwrite every '#' comment of ``text`` with spaces, in place.

    A comment runs from its '#' to the next byte of :data:`_COMMENT_END`,
    which it leaves, so the text keeps its lines and the offset of every
    token. A comment right after a CR leaves that CR followed by a space,
    not joined to an LF after the comment.
    """
    hashes = np.cumsum(text == _HASH)  # the '#' bytes up to each byte
    ends = np.where(_COMMENT_END[text], hashes, 0)
    np.maximum.accumulate(ends, out=ends)  # the '#' bytes up to the last line end at or before it
    text[hashes > ends] = _SPACE


def _chunk_tokens(text: np.ndarray, tabbed: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The offsets where the tokens of ``text`` start and stop, or None, as :func:`_token_blocks` says.

    ``text`` is whole lines without comments, the last one ended by an LF
    that closes the text. One scan finds its events in order: where a
    token starts or stops, and every line end. Between two token starts
    stand exactly the first token's stop and any line ends, so whether a
    line holds 0 or 2 tokens is read from the events around each start,
    with no search over the line ends.
    """
    token = text > _SPACE
    edge = np.empty_like(token)
    edge[0] = token[0]
    np.not_equal(token[1:], token[:-1], out=edge[1:])  # a token starts or stops
    line_end = text == _LF
    line_end |= text == _CR
    at = np.flatnonzero(edge | line_end)
    kind = text[at]  # the byte of each event: a token's first byte, a blank, or a line end
    first = np.flatnonzero(kind > _SPACE)  # the event of each token start
    if first.size % 2:
        return None
    one, two = first[0::2], first[1::2]  # each line's tokens, if it has two
    ends = kind[first + 1]  # the blank or line end each token stops at
    ends = (ends == _LF) | (ends == _CR)
    # The first token stops at a blank that is the one event before the second, and
    # a line end stops the second or stands before the next line's first token.
    if not bool(((two - one == 2) & ~ends[0::2]).all()):
        return None
    if not bool((ends[1::2][:-1] | (one[1:] - two[:-1] > 2)).all()):
        return None
    if tabbed:
        # The same events with every tab. The one before a line's first token is
        # no tab (kind[-1], the closing line end, stands before the first line),
        # and a tab stops that token or follows its stop.
        kind = text[np.flatnonzero(edge | (text < _SPACE))]
        starts = np.flatnonzero(kind > _SPACE)
        one, two = starts[0::2], starts[1::2]
        if bool((kind[one - 1] == _TAB).any()):
            return None
        if not bool(((kind[one + 1] == _TAB) | (two - one > 2)).all()):
            return None
    return at[first], at[first + 1]


def _token_edges(data: bytes) -> tuple[bytes, np.ndarray, np.ndarray] | None:
    """The id text and endpoint arrays of an edge list of printable-ASCII ids, or None.

    Vectorized over the UTF-8 bytes (:func:`_utf8`), with no per-line Python
    loop. It applies when, outside comments, the input is printable ASCII,
    spaces, tabs, LF and CR, and every non-blank line holds exactly two
    tokens: "v <id>" declares a vertex and any other line is an edge, so a
    "v" in second position is an id. Every token is keyed, and one
    :class:`_Ids` numbers the keys by first appearance; the distinct ids
    come back as ASCII lines in that order, with the dense endpoint arrays
    of every edge. No simple-graph rule is checked here and nothing is
    raised: any other input returns None.

    While every id is a small canonical decimal, the keys are the values
    :func:`_decimals` reads from each block of :func:`_token_blocks` as it is
    cut, and each block's numbered endpoints are written into the endpoint
    arrays. At the first block with an id of any other form, the whole
    stream is read again (:func:`_tokenize`) and keyed at once by
    :func:`_ranks`, and every id is numbered afresh.

    Memory: beside the text, on decimal ids the peak holds the two int32
    endpoint arrays, allocated once, one entry per line, and cut to the edge
    count in place; the table of :class:`_Ids`, as long as the largest id;
    and block-sized temporaries. On other ids it holds the int32 start,
    length and key of every token, the table, and chunk-sized temporaries.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    lines = _line_ends(data) + 1
    ids, m = _Ids(), 0
    eu = np.empty(lines, dtype=np.int32)  # a line holds at most one edge
    ev = np.empty(lines, dtype=np.int32)
    blocks = _token_blocks(data, False, _CHUNK)
    for block in blocks:
        if block is None:
            return None
        start, length = block
        edge = _declare(raw, start, length)
        keys = _decimals(raw, start, length, 8 * lines + 1024)  # as _keys bounds them: two tokens a line
        if keys is None:
            break
        ids.number(keys, start, length)
        top = m + int(np.count_nonzero(edge))
        eu[m:top], ev[m:top], m = keys[0::2][edge], keys[1::2][edge], top
    else:
        eu.resize(m, refcheck=False)  # in place: no view of either array is kept
        ev.resize(m, refcheck=False)
        return ids.text(raw), eu, ev
    del ids, eu, ev, blocks, block, start, length, edge  # freed before the whole text is cut again
    tokens = _tokenize(data)
    if tokens is None:
        return None
    raw, start, length = tokens
    del tokens
    _declare(raw, start, length)
    keys = _ranks(raw, start, length)
    ids = _Ids()
    ids.number(keys, start, length)
    edge = start[0::2] != start[1::2]  # made after _ranks, whose peak it would raise
    del start, length
    return ids.text(raw), keys[0::2][edge], keys[1::2][edge]


def _declare(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Point the "v" of every line "v <id>" at the id it declares, in place; True for each line that is an edge.

    The line then holds its id twice at one offset, which tells it from an
    edge, whose two tokens start at different offsets.
    """
    short = 2 * np.flatnonzero(length[0::2] == 1)  # the first tokens of one byte
    declared = short[raw[start[short]] == _V]
    start[declared] = start[declared + 1]
    length[declared] = length[declared + 1]
    return start[0::2] != start[1::2]


_UNSEEN = np.iinfo(np.int32).max  # above every position in a chunk and every id number


class _Ids:
    """Ids numbered by first appearance, across calls to :meth:`number`.

    Equal keys are equal ids. ``table`` maps each key to the number of its
    id, :data:`_UNSEEN` for a key not seen yet, and grows with the largest
    key. :meth:`number` keeps the start offset and the length of each id's
    first token, from its ``start`` and ``length``, for :meth:`text`.
    """

    def __init__(self):
        self.n = 0
        self.table = np.empty(0, dtype=np.int32)
        self.starts, self.lengths = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]

    def number(self, keys: np.ndarray, start: np.ndarray, length: np.ndarray) -> None:
        """Replace each key (nonnegative) by the number of its id, in place, :data:`_CHUNK` keys at a time."""
        missing = int(keys.max(initial=-1)) + 1 - self.table.size  # the keys above the table
        if missing > 0:
            grow = np.full(max(missing, self.table.size // 4), _UNSEEN, dtype=np.int32)
            self.table = np.concatenate([self.table, grow])
        table = self.table
        for at in range(0, keys.size, _CHUNK):
            block = keys[at : at + _CHUNK]
            fresh = np.flatnonzero(table.take(block) == _UNSEEN).astype(np.int32)  # the keys not numbered yet
            if fresh.size:
                new = block[fresh]
                np.minimum.at(table, new, fresh)  # the first position of each new key
                first = fresh[table.take(new) == fresh]
                table[block[first]] = np.arange(self.n, self.n + first.size, dtype=np.int32)
                self.n += first.size
                self.starts.append(start[at + first])
                self.lengths.append(length[at + first])
            table.take(block, out=block)

    def text(self, raw: np.ndarray) -> bytes:
        """The ids as ASCII lines in the order of their numbers; the table is freed before they are joined."""
        del self.table
        start, length = np.concatenate(self.starts), np.concatenate(self.lengths)
        del self.starts, self.lengths
        return _join(raw, start, length)


def _edge_at(data: bytes, k: int) -> tuple[str, str, int]:
    """The two ids of edge ``k`` of an edge list :func:`_token_edges` read, and its line.

    The token stream is read again up to the edge; its line is the count of line
    ends above its first id, as ``str.splitlines()`` counts them, plus one.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    for start, length in _token_blocks(data, False, _CHUNK):
        edges = np.flatnonzero(_declare(raw, start, length))
        if k < edges.size:
            at = 2 * int(edges[k])
            (a, b), (la, lb) = start[at : at + 2].tolist(), length[at : at + 2].tolist()
            return data[a : a + la].decode("ascii"), data[b : b + lb].decode("ascii"), _line_ends(data, a) + 1
        k -= edges.size


def _token_coloring(data: bytes, id_text: bytes | None, n: int) -> tuple[np.ndarray, tuple[str, ...]] | None:
    """The class index of each of ``n`` vertices and the class labels of a TSV coloring, or None.

    ``id_text`` holds the ids of the vertices, one per line in vertex order
    (a graph's ``_id_text``). Vectorized over the UTF-8 bytes
    (:func:`_utf8`), with no per-line Python loop. It applies only when
    there are vertices and an id text and, after comments are removed,
    every non-blank line holds the id of a vertex, then blanks holding the
    line's first tab, then one label of printable ASCII, with each vertex
    named on exactly one line. The tokens are the whole token stream
    (:func:`_tokenize`), with ``tabbed`` for the first tabs. Class indices
    are int32, assigned by first appearance of each label.

    The vertices' ids and the file's ids are keyed in one :func:`_keys`
    call, over the id text followed by the file's ids joined as lines
    (:func:`_join`), so no label or blank of the file is copied; the
    vertices' ids are distinct, so a table from key to vertex gives each
    file id its vertex. The class labels are keyed in another call and
    numbered by :class:`_Ids`. Any other input, every bad one included,
    returns None.
    """
    if not n or id_text is None:
        return None
    tokens = _tokenize(data, tabbed=True)
    if tokens is None:
        return None
    raw, start, length = tokens
    del tokens
    if start.size != 2 * n:  # a vertex is missing, unknown or repeated
        return None
    id_start, id_length, label_start, label_length = start[0::2], length[0::2], start[1::2], length[1::2]
    # The vertices' ids, one per line of the id text, then the file's ids: an
    # id is a vertex exactly when its index is below n.
    text = np.frombuffer(id_text + _join(raw, id_start, id_length), dtype=np.uint8)
    ends = np.flatnonzero(text == ord("\n")).astype(np.int32 if text.size < 2**31 else np.int64)
    line_start = np.zeros_like(ends)
    line_start[1:] = ends[:-1] + 1
    ends -= line_start  # the length of each line's id
    keys = _keys(text, line_start, ends)
    del text, line_start, ends
    table = np.full(int(keys.max()) + 1, n, dtype=np.int32)  # n for a key of no vertex
    table[keys[:n]] = np.arange(n, dtype=np.int32)  # the vertices' ids are distinct
    vertex = table[keys[n:]]
    del keys, table
    seen = np.zeros(n + 1, dtype=bool)
    seen[vertex] = True
    if not bool(seen[:n].all()):  # n ids: an unknown or repeated one leaves a vertex unnamed
        return None
    keys = _keys(raw, label_start, label_length)
    labels = _Ids()
    labels.number(keys, label_start, label_length)
    assignment = np.empty(n, dtype=np.int32)
    assignment[vertex] = keys
    return assignment, tuple(labels.text(raw).decode("ascii").splitlines())


def _decimals(raw: np.ndarray, start: np.ndarray, length: np.ndarray, bound: int) -> np.ndarray | None:
    """The int32 value of every token ``raw[start:start + length]``, or None.

    None unless every token is a canonical decimal (1 to 9 ASCII digits with
    no leading zero, so that a value and its text determine each other)
    below ``bound``, which keeps the tables numbering the keys small. The
    tokens are read :data:`_CHUNK` at a time, on intp offsets, and each
    value is accumulated in place one digit column at a time, so that
    besides the values only chunk-sized buffers are made.
    """
    if int(length.max(initial=0)) > min(len(str(bound)), _MAX_DIGITS):
        return None
    keys = np.empty(start.size, dtype=np.int32)
    for at in range(0, start.size, _CHUNK):
        values, size = keys[at : at + _CHUNK], length[at : at + _CHUNK]
        offset = start[at : at + _CHUNK].astype(np.intp)
        digit = raw.take(offset)
        digit -= _ZERO  # uint8: a byte below "0" wraps above 9
        if int(digit.max()) > 9 or bool(((digit == 0) & (size > 1)).any()):
            return None
        values[:] = digit
        live = np.empty(size.size, dtype=bool)
        for j in range(1, int(size.max())):
            np.greater(size, j, out=live)
            raw[j:].take(offset, mode="clip", out=digit)
            digit -= _ZERO
            digit *= live  # 0 past each token's end
            if int(digit.max()) > 9:
                return None
            np.multiply(values, 10, out=values, where=live)
            values += digit
        if int(values.max()) >= bound:
            return None
    return keys


def _keys(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """One int32 key per token ``raw[start:start + length]``, equal exactly when the tokens are.

    The keys hold within one call only, and are small enough for the table
    of :class:`_Ids`: canonical decimals below 4 per token plus 1024
    (:func:`_decimals`) are keyed by their values, and any other tokens are
    numbered by :func:`_ranks`.
    """
    keys = _decimals(raw, start, length, 4 * start.size + 1024)
    return _ranks(raw, start, length) if keys is None else keys


def _ranks(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Numbers of the tokens ``raw[start:start + length]``, equal exactly when the tokens are.

    The tokens are numbered by their first 8 bytes, zero-padded (no token
    holds a NUL byte). Then, 8 bytes at a time, only the tokens longer than
    the bytes read so far are numbered again, above every number given so
    far, by their number and their next 8 bytes: O(tokens) memory at any length.
    """
    rank, top = _numbers([_words(raw, start, length)])
    live = np.flatnonzero(length > 8)  # the tokens not yet read to their end
    for offset in range(8, int(length.max(initial=0)), 8):
        group = _numbers([rank[live]])[0].astype(np.int64)
        word, words = _numbers([_words(raw, start[live] + offset, length[live] - offset)])
        pair, pairs = _numbers([group * words + word])  # below len(live) ** 2
        rank[live] = pair + top
        top += pairs
        live = live[length[live] > offset + 8]
    return rank


def _words(raw: np.ndarray, at: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``raw`` from each offset ``at``, as little-endian uint64 zeroed past ``length``."""
    if raw.size < 8:
        raw = np.pad(raw, (0, 8 - raw.size))
    last = raw.size - 8  # the last offset with 8 bytes after it
    # the 8 bytes from each offset as one void item, which a gather takes without a copy of raw
    windows = np.ndarray((last + 1,), dtype="V8", buffer=raw, strides=(1,))
    word = windows[np.minimum(at, last)].view("<u8")
    late = np.flatnonzero(at > last)  # a window moved back to fit in raw: its bytes from at moved down
    word[late] >>= (at[late] - last).astype(np.uint64) << 3
    past = (8 - np.minimum(length, 8).astype(np.uint8)) << 3  # the bits past each token's end
    word <<= past
    word >>= past
    return word


def _numbers(box: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Each key's index among the distinct keys in sorted order (int32), and their count.

    The keys are the one item of ``box``, which is emptied: the keys are
    then sorted in place and freed before the numbers are made, which keeps
    the peak memory near three times theirs. (A bare argument would stay
    alive to the end of the call on Python 3.10, whose callers hold their
    arguments until the call returns.)
    """
    keys = box.pop()
    perm = keys.argsort()
    keys.sort()
    new = keys[1:] != keys[:-1]
    del keys
    count = np.cumsum(new, dtype=np.int32)  # the number of each key but the first
    del new
    numbers = np.zeros(perm.size, dtype=np.int32)
    numbers[perm[1:]] = count
    return numbers, int(count[-1]) + 1 if count.size else perm.size


def _join(raw: np.ndarray, start: np.ndarray, length: np.ndarray) -> bytes:
    """The tokens ``raw[start:start + length]`` as ASCII lines, one per token.

    The text is gathered about :data:`_CHUNK` bytes at a time, so that the
    offsets of its bytes are chunk-sized.
    """
    ends = np.cumsum(length + 1)  # where each token's line ends in the text
    text = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    cuts = [0, *np.searchsorted(ends, range(_CHUNK, text.size, _CHUNK)).tolist(), ends.size]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        top = int(ends[a - 1]) if a else 0
        # the offset in raw of every byte of these lines: a token, then the byte after it
        at = np.repeat(start[a:b] - (ends[a:b] - top) + length[a:b] + 1, length[a:b] + 1)
        at += np.arange(at.size)
        text[top : ends[b - 1]] = raw[np.minimum(at, raw.size - 1)]  # the last token may end the buffer
    text[ends - 1] = ord("\n")
    return text.tobytes()
