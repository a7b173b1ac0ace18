"""Text file formats: STS2 systems, CTL1 controllers and every CSV (bounds, trace, plot, report).

Formats are line oriented and diff friendly; floats are written with Python
repr so every file re-parses to a structurally identical object and repeated
runs are byte identical (a timestamp comment can be suppressed).

STS2 (`t x u : s_1 ... s_n k`, the box of cells that start at s and span
shape k's counts) and CTL1 (`c x v : u ...`) share one header, written by
`_header`, and one tagged-record reader, `_read_tagged`; one table,
`_GRID_META`, lists their `# grid:` metadata. The record lines and the bounds
CSV (`x,lower,upper`) go through one block codec built on numpy: `_render`
turns a block of lines into a uint8 buffer, and `_scan` reads a file in
blocks of about `_BLOCK_BYTES` bytes cut at the last newline and tokenizes
each block as a whole. Header, comment and `# grid:` lines are few and go
through plain Python. Memory beyond the arrays of the written or parsed
object is about ten times a block's size; blocks end only at newlines, so a
line longer than `_BLOCK_BYTES` makes its block that long.

Every reader takes records in the one order its writer produces and sorts
nothing: STS2 records ascend by input, then by cell; CTL1 records ascend
strictly by state; row k of a bounds CSV names state k. `_reject` names the
line of the first record that breaks a rule.

Accepted integer grammar: a number is one or more ASCII decimal digits (no
sign); tokens are separated by any run of spaces, tabs or carriage returns,
and lines may have leading whitespace. Blank lines and `#` comments may
appear anywhere after the first line. Everything else raises FormatError
with the line number.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np

from .abstraction import GridSpec, Quantizer, SuccessorBoxes
from .fts import segment_indices
from .refine import TARGET, applied_inputs
from .synthesis import EntryTimeTable, SymbolicController


class FormatError(ValueError):
    """Malformed system, controller or table file."""


def _timestamp_line():
    return f"# written: {datetime.now(timezone.utc).isoformat(timespec='seconds')}\n"


_SHOWN_CHARS = 40  # an error message echoes at most this much of a bad line


def _shown(line: str) -> str:
    return line if len(line) <= _SHOWN_CHARS else line[:_SHOWN_CHARS] + "..."


def _fmt_num(v) -> str:
    return repr(float(v))


def _parse_list(text, kind=float) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(f"expected bracketed list, got '{text}'")
    return [kind(t) for t in text[1:-1].replace(",", " ").split()]


def _flag(word) -> bool:
    if word not in ("0", "1"):
        raise ValueError(f"periodic flag '{word}' is not 0 or 1")
    return word == "1"


# The `# grid:` metadata: each GridSpec field, in file order, with its kind,
# the (writer, reader) pair of its `key=value` text
_NUM = (_fmt_num, float)
_LIST = (lambda values: "[" + ",".join(map(_fmt_num, values)) + "]",
         lambda text: np.array(_parse_list(text)))
_FLAGS = (lambda flags: "[" + ",".join("1" if f else "0" for f in flags) + "]",
          lambda text: tuple(_parse_list(text, _flag)))
_GRID_META = {"tau": _NUM, "mu": _NUM, "eta": _LIST, "periodic": _FLAGS,
              "domain_lower": _LIST, "domain_upper": _LIST,
              "input_lower": _LIST, "input_upper": _LIST}


def _parse_grid(entries: dict) -> GridSpec:
    """The GridSpec of the `key=value` grid metadata, which every file must carry."""
    if not entries:
        raise FormatError("no '# grid:' metadata: symtoc reads gridded systems only")
    missing = _GRID_META.keys() - entries.keys()
    if missing:
        raise FormatError(f"grid metadata missing keys: {sorted(missing)}")
    try:
        return GridSpec(**{key: kind[1](entries[key]) for key, kind in _GRID_META.items()})
    except ValueError as e:
        raise FormatError(f"bad grid metadata: {e}") from None


# -- block codec for the integer lines ----------------------------------------

# Bytes rendered or scanned per block. A block holds about ten temporary
# arrays of its size; 256 KB blocks were at most slightly faster and raised
# a 62 MB process's peak RSS by almost 4 MB.
_BLOCK_BYTES = 1 << 16

_POW10 = [10 ** k for k in range(1, 10)]
_MAX_DIGITS = 9  # longer numbers are rejected, so values fit int32


def _is_digit(a):
    return (a - ord("0")) <= 9  # uint8: bytes below "0" wrap around


def _is_space(a):
    return (a == ord(" ")) | (((a - ord("\t")) <= 4) & (a != ord("\n")))  # \t \v \f \r


def _render(tokens, per_line, sep: bytes, words=()) -> np.ndarray:
    """Bytes of lines holding `per_line` tokens each, joined by `sep`, ended by newlines.

    A token >= 0 is written in decimal; token -k stands for the text words[k-1].
    """
    digits = np.ones(tokens.size, dtype=np.int64)
    for p in _POW10:
        above = tokens >= p
        if not above.any():
            break
        digits += above
    for k, word in enumerate(words, start=1):
        digits[tokens == -k] = len(word)
    ends = np.cumsum(digits + 1) - 1  # the byte after each token
    buf = np.full(int(ends[-1]) + 1, ord(sep), dtype=np.uint8)
    buf[ends[np.cumsum(per_line) - 1]] = ord("\n")
    value, pos = tokens, ends - 1  # a word token gets one junk digit, overwritten below
    while value.size:
        rest = value // 10
        buf[pos] = (value - 10 * rest + ord("0")).astype(np.uint8)
        value = rest
        more = value > 0
        value, pos = value[more], pos[more] - 1
    for k, word in enumerate(words, start=1):
        at = ends[tokens == -k] - len(word)
        for i, ch in enumerate(word):
            buf[at + i] = ch
    return buf


def _write_blocks(fh, width, tokens_of, sep: bytes, words=()):
    """Write lines of width[i] tokens in blocks; tokens_of(a, b) gives lines a..b-1."""
    ends = np.cumsum(width)
    a = 0
    while a < width.size:
        budget = (ends[a - 1] if a else 0) + _BLOCK_BYTES // 4  # tokens take ~4 bytes
        b = max(int(np.searchsorted(ends, budget, side="right")), a + 1)
        fh.write(_render(tokens_of(a, b), width[a:b], sep, words))
        a = b


def _tagged_tokens(heads, offsets, flat, rows) -> np.ndarray:
    """Tokens of lines `tag h0 h1 : flat[offsets[r]:offsets[r+1]]` (tag -1, colon -2)."""
    counts = offsets[rows + 1] - offsets[rows]
    width = counts + 4
    first = np.cumsum(width) - width
    tokens = np.empty(int(width.sum()), dtype=np.int32)
    tail = np.ones(tokens.size, dtype=bool)
    for i, column in enumerate((-1, heads[0], heads[1], -2)):
        tokens[first + i] = column
        tail[first + i] = False
    tokens[tail] = flat[segment_indices(offsets[rows], counts)]
    return tokens


def _blocks(fh):
    """Yield the rest of a binary file as uint8 arrays of whole lines."""
    pending = []
    while True:
        chunk = fh.read(_BLOCK_BYTES)
        if not chunk:
            if any(pending):
                yield np.frombuffer(b"".join(pending) + b"\n", dtype=np.uint8)
            return
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        yield np.frombuffer(b"".join(pending) + chunk[:cut], dtype=np.uint8)
        pending = [chunk[cut:]]


def _scan(fh, lineno, lead, sep: bytes, fields, what, on_line, inf=False):
    """Tokenize the record lines of an open binary file, one block at a time.

    A record line starts, after optional whitespace, with the byte `lead`
    and whitespace (with lead None: with a digit) and holds `fields` groups
    of decimal tokens split by `sep`. Every other non-blank line goes to
    on_line(lineno, text) in file order; `lineno` numbers the first line.
    With `inf`, the token "inf" is allowed and reads as -1.

    Returns the line number of each record, its token count per field as
    an (records, fields) array, and all token values in file order (int32).
    """
    lines_out = [np.zeros(0, dtype=np.int64)]
    counts_out = [np.zeros((0, fields), dtype=np.int64)]
    values_out = [np.zeros(0, dtype=np.int32)]
    for b in _blocks(fh):
        is_nl = b == ord("\n")
        nl = np.flatnonzero(is_nl)
        starts = np.concatenate(([0], nl[:-1] + 1))
        first = starts.copy()
        while True:
            indent = _is_space(b[first])
            if not indent.any():
                break
            first[indent] += 1
        c0 = b[first]
        if lead is None:
            rec = _is_digit(c0)
        else:
            rec = (c0 == ord(lead)) & _is_space(b[np.minimum(first + 1, b.size - 1)])

        def fail(pos, message):
            line = lineno + int(np.searchsorted(nl, pos))
            raise FormatError(f"line {line}: {message} in {what}")

        # byte classes; other lines and the lead bytes count as whitespace
        tok = _is_digit(b)
        if inf:
            tok |= (b == ord("i")) | (b == ord("n")) | (b == ord("f"))
        is_sep = b == ord(sep)
        space = _is_space(b)
        other = ~rec & (c0 != ord("\n"))
        for i in np.flatnonzero(other):
            on_line(lineno + int(i), b[first[i]:nl[i]].tobytes().decode(errors="replace").rstrip())
            tok[starts[i]:nl[i]] = is_sep[starts[i]:nl[i]] = False
            space[starts[i]:nl[i]] = True
        if lead is not None:
            space[first[rec]] = True
        valid = tok | space | is_sep | is_nl
        if not valid.all():
            pos = int(np.argmax(~valid))
            fail(pos, f"unexpected character {chr(b[pos])!r}")
        # events in byte order: 1 token start, 2 separator, 3 newline
        start = tok.copy()
        start[1:] &= ~tok[:-1]
        code = start.view(np.int8) + 2 * is_sep.view(np.int8) + 3 * is_nl.view(np.int8)
        events = np.flatnonzero(code)
        kind = code[events]
        # fields end at separators and newlines; between two ends lie only tokens
        ends = np.flatnonzero(kind > 1)
        per_field = np.diff(ends, prepend=-1) - 1
        line_end = kind[ends] == 3
        per_line = np.diff(np.flatnonzero(line_end), prepend=-1)
        wrong = rec & (per_line != fields)
        if wrong.any():
            fail(nl[np.argmax(wrong)], f"expected {fields - 1} '{sep.decode()}'")
        field_rec = np.repeat(rec, per_line)
        # values: Horner over digit positions, from each token's first byte
        s = events[kind == 1]
        value = np.zeros(s.size, dtype=np.int32)
        length = np.zeros(s.size, dtype=np.int32)
        alive = np.ones(s.size, dtype=bool)
        for j in range(_MAX_DIGITS + 1):
            digit = np.take(b, s + j, mode="clip") - ord("0")
            alive &= digit <= 9
            if not alive.any():
                break
            value = np.where(alive, value * 10 + digit, value)
            length += alive
        if alive.any():
            fail(s[np.argmax(alive)], "number out of range")
        if inf:
            # a token is its digits, or exactly "inf" (read as -1)
            word = length == 0
            for j, ch in enumerate(b"inf"):
                word &= np.take(b, s + j, mode="clip") == ch
            overrun = np.take(tok, s + np.where(word, 3, length), mode="clip")
            bad = overrun | ((length == 0) & ~word)
            if bad.any():
                fail(s[np.argmax(bad)], "malformed number")
            value[word] = -1
        lines_out.append(lineno + np.flatnonzero(rec))
        counts_out.append(per_field[field_rec].reshape(-1, fields))
        values_out.append(value)
        lineno += nl.size
    return (np.concatenate(lines_out), np.concatenate(counts_out),
            np.concatenate(values_out))


def _reject(lines, bad, message):
    """Reject the first record flagged in the per-record mask `bad`, naming its
    line; message(i) says what is wrong with record i."""
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"line {lines[i]}: {message(i)}")


def _repeated_or_descending(key):
    """Per-record mask of the records whose key does not exceed the one before."""
    bad = np.zeros(key.size, dtype=bool)
    bad[1:] = key[1:] <= key[:-1]
    return bad


# -- STS2 and CTL1: tagged records -----------------------------------------------

def _header(magic, n, m, grid: GridSpec, timestamp) -> bytes:
    """The magic line, the timestamp comment (optional), the `# grid:` lines and
    the states/inputs header."""
    text = magic + "\n" + (_timestamp_line() if timestamp else "")
    entries = [f"{key}={kind[0](getattr(grid, key))}" for key, kind in _GRID_META.items()]
    entries[:2] = [" ".join(entries[:2])]  # tau and mu share a line
    text += "".join(f"# grid: {entry}\n" for entry in entries)
    return f"{text}states {n}\ninputs {m}\n".encode()


def _read_tagged(path, magic, tag: bytes, what, keyword=None):
    """Read the header and the `tag a b : tail ...` records of a file.

    Returns the states and inputs counts, the grid, the record line numbers,
    the token count of each record's tail and all record tokens in file order
    (the two heads of a record, then its tail). With `keyword`, each line
    `keyword w...` is also returned, as (line number, [w...]) in file order.
    """
    header, grid_entries, extra = {}, {}, []

    def on_line(lineno, line):
        if line.startswith("# grid:"):
            for token in line[len("# grid:"):].split():
                if "=" not in token:
                    raise FormatError(f"line {lineno}: bad grid metadata token '{token}'")
                key, value = token.split("=", 1)
                if key not in _GRID_META:
                    raise FormatError(f"line {lineno}: unknown grid key '{key}'")
                if key in grid_entries:
                    raise FormatError(f"line {lineno}: repeated grid key '{key}'")
                grid_entries[key] = value
            return
        if line.startswith("#"):
            return
        key, *values = line.split()
        if key == keyword:
            extra.append((lineno, values))
            return
        if key not in ("states", "inputs"):
            raise FormatError(f"line {lineno}: unrecognized line '{_shown(line)}'")
        if key in header:
            raise FormatError(f"line {lineno}: repeated '{key}' line")
        if not (len(values) == 1 and _is_number(values[0])):
            raise FormatError(f"line {lineno}: '{key}' takes one decimal number")
        header[key] = (lineno, int(values[0]))

    with open(path, "rb") as fh:
        # read no further than the echo needs: a longer first line is no magic line
        head = fh.readline(_SHOWN_CHARS + 2)
        first = head.decode(errors="replace").strip()
        if first != magic or (len(head) == _SHOWN_CHARS + 2 and not head.endswith(b"\n")):
            article = "an" if magic.startswith("S") else "a"
            raise FormatError(f"not {article} {magic} file (header '{_shown(first)}')")
        lines, counts, values = _scan(fh, 2, tag, b":", 2, what, on_line)
    if len(header) < 2:
        raise FormatError("missing states/inputs header")
    (states_line, n), (inputs_line, m) = header["states"], header["inputs"]
    if lines.size and lines[0] < max(states_line, inputs_line):
        raise FormatError(f"line {lines[0]}: {what} before states/inputs header")
    grid = _parse_grid(grid_entries)
    if grid.num_cells != n:
        raise FormatError("grid metadata cell count does not match the state count")
    if grid.num_inputs != m:
        raise FormatError("grid metadata input count does not match the input count")
    if (counts[:, 0] != 2).any():
        raise FormatError(f"line {lines[np.argmax(counts[:, 0] != 2)]}: malformed {what}")
    return n, m, grid, lines, counts[:, 1], values, extra


def _is_number(word) -> bool:
    return word.isascii() and word.isdigit() and len(word) <= _MAX_DIGITS


# -- STS2 system files ---------------------------------------------------

def write_system(path, boxes: SuccessorBoxes, timestamp: bool = True):
    """Write the boxes as STS2: per input, its `shape u k c_1 ... c_n` lines, then
    one `t x u : s_1 ... s_n k` record per enabled cell x, by ascending x."""
    n = boxes.grid.dim
    with open(path, "wb") as fh:
        fh.write(_header("STS2", boxes.num_states, boxes.num_inputs, boxes.grid, timestamp))
        for u, (cells, starts, shape, shapes) in enumerate(boxes.inputs):
            fh.write("".join(f"shape {u} {k} {' '.join(map(str, counts))}\n"
                             for k, counts in enumerate(shapes.tolist())).encode())

            def tokens_of(a, b):
                tokens = np.empty((b - a, n + 5), dtype=np.int32)
                tokens[:, 0], tokens[:, 1], tokens[:, 2], tokens[:, 3] = -1, cells[a:b], u, -2
                tokens[:, 4:-1] = starts[a:b]
                tokens[:, -1] = shape[a:b]
                return tokens.ravel()

            _write_blocks(fh, np.full(cells.size, n + 5), tokens_of, b" ", (b"t", b":"))


def _read_shapes(shape_lines, m, K):
    """Each input's shapes, an (S, n) int32 array of count vectors, and the line of
    its last shape line (0 without one). An input's shape ids number its
    `shape` lines from 0 in file order; each count lies in 1..K on its axis."""
    n = K.size
    table, last = [[] for _ in range(m)], np.zeros(m, dtype=np.int64)
    for lineno, words in shape_lines:
        if len(words) != n + 2 or not all(map(_is_number, words)):
            raise FormatError(f"line {lineno}: 'shape' takes an input, a shape id and "
                              f"{n} counts")
        u, k, *counts = map(int, words)
        if u >= m:
            raise FormatError(f"line {lineno}: input {u} out of range")
        if k != len(table[u]):
            raise FormatError(f"line {lineno}: shape {k} of input {u} where its shape "
                              f"{len(table[u])} is due")
        for a, c in enumerate(counts):
            if not 1 <= c <= K[a]:
                raise FormatError(f"line {lineno}: count {c} on axis x{a + 1} is not in "
                                  f"1..{K[a]}")
        table[u].append(counts)
        last[u] = lineno
    return [np.array(t, dtype=np.int32).reshape(-1, n) for t in table], last


def _parse_boxes(path) -> SuccessorBoxes:
    """Read an STS2 file into the SuccessorBoxes it stores."""
    what = "transition line"
    N, m, grid, lines, tail_len, values, shape_lines = _read_tagged(path, "STS2", b"t", what,
                                                                    "shape")
    K = grid.cells_per_axis()
    n = K.size
    shapes, last = _read_shapes(shape_lines, m, K)

    _reject(lines, tail_len != n + 1, lambda i: f"malformed {what}: expected {n} start"
                                                f"{'s' if n > 1 else ''} and a shape id")
    rec = values.reshape(-1, n + 3)
    x, u, starts, k = rec[:, 0], rec[:, 1], rec[:, 2:-1], rec[:, -1]
    _reject(lines, (x >= N) | (u >= m), lambda i: "state or input out of range")
    _reject(lines, _repeated_or_descending(u.astype(np.int64) * N + x),
            lambda i: f"record of cell {x[i]} and input {u[i]} repeated or out of order "
                      "(records ascend by input, then by cell)")
    per_input = np.array([s.shape[0] for s in shapes], dtype=np.int64)
    _reject(lines, k >= per_input[u], lambda i: f"unknown shape {k[i]} of input {u[i]}")
    _reject(lines, lines < last[u], lambda i: f"record before the shape lines of input {u[i]}")
    table = np.concatenate([np.zeros((0, n), dtype=np.int32), *shapes])
    row = (np.cumsum(per_input) - per_input)[u] + k
    for a in range(n):
        _reject(lines, starts[:, a] >= K[a],
                lambda i: f"start {starts[i, a]} on axis x{a + 1} off the grid's {K[a]} cells")
        if not grid.periodic[a]:
            _reject(lines, starts[:, a] + table[row, a] > K[a],
                    lambda i: f"box past the grid's edge on axis x{a + 1}")
    bounds = np.searchsorted(u, np.arange(m + 1))
    return SuccessorBoxes(grid, [(x[a:b], starts[a:b], k[a:b], shapes[v])
                                 for v, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))])


def parse_system(path):
    """Read an STS2 file; returns (FiniteSystem, GridSpec): the system its boxes expand to."""
    boxes = _parse_boxes(path)
    return boxes.expand(), boxes.grid


# -- CTL1 controller files ------------------------------------------------

def write_controller(path, ctrl: SymbolicController, grid: GridSpec, timestamp: bool = True):
    """Write CTL1; raises ValueError unless the grid has the controller's states and inputs."""
    n, m = ctrl.num_states, ctrl.num_inputs
    if (grid.num_cells, grid.num_inputs) != (n, m):
        raise ValueError(f"the controller has {n} states and {m} inputs, its grid "
                         f"{grid.num_cells} cells and {grid.num_inputs} inputs")
    rows = np.flatnonzero(ctrl.levels <= n)
    offsets, flat = ctrl.offsets, ctrl.enabled_inputs_flat
    with open(path, "wb") as fh:
        fh.write(_header("CTL1", n, m, grid, timestamp))
        _write_blocks(fh, np.diff(offsets)[rows] + 4,
                      lambda a, b: _tagged_tokens((rows[a:b], ctrl.levels[rows[a:b]] - 1),
                                                  offsets, flat, rows[a:b]),
                      b" ", (b"c", b":"))


def parse_controller(path):
    """Read a CTL1 file; returns (SymbolicController, GridSpec). Records ascend
    strictly by state, and so does each record's list of inputs."""
    what = "controller line"
    n, m, grid, lines, tail_len, values, _ = _read_tagged(path, "CTL1", b"c", what)
    start = np.cumsum(tail_len + 2) - (tail_len + 2)
    x, value = values[start], values[start + 1]
    tail = np.ones(values.size, dtype=bool)
    tail[start] = tail[start + 1] = False
    inputs = values[tail]
    _reject(lines, (x >= n) | (value >= n), lambda i: "state or value out of range")
    _reject(lines, (value > 0) & (tail_len == 0), lambda i: "winning state without inputs")
    _reject(lines, (value == 0) & (tail_len > 0), lambda i: "target state with inputs")
    # the per-input checks flag the record that holds the first bad input
    owner = np.repeat(np.arange(x.size), tail_len)
    above = inputs >= m
    _reject(lines, np.bincount(owner[above], minlength=x.size) > 0,
            lambda i: f"input {inputs[np.argmax(above)]} out of range")
    # refine.applied_inputs takes a row's first input to be its lowest; with
    # inputs below m, (record, input) keys ascend exactly when each row does
    stalled = _repeated_or_descending(owner * m + inputs)
    _reject(lines, np.bincount(owner[stalled], minlength=x.size) > 0,
            lambda i: "inputs not strictly ascending")
    _reject(lines, _repeated_or_descending(x),
            lambda i: f"record of state {x[i]} repeated or out of order (records ascend by state)")
    offsets = np.zeros(n + 1, dtype=np.int64)
    offsets[x + 1] = tail_len
    np.cumsum(offsets, out=offsets)
    levels = np.full(n, n + 1, dtype=np.int64)
    levels[x] = value + 1
    ctrl = SymbolicController(num_states=n, num_inputs=m, levels=levels, offsets=offsets,
                              enabled_inputs_flat=inputs)
    return ctrl, grid


# -- bounds CSV ------------------------------------------------------------

def fmt_entry_time(v) -> str:
    return "inf" if math.isinf(v) else str(int(v))


def write_bounds_table(fh, lower: EntryTimeTable, upper: SymbolicController, states=None,
                       timestamp: bool = False):
    """Write the `state,lower,upper` table to the binary stream fh: the header,
    then the row of each of `states` (default: every state, ascending)."""
    lo, up = lower.entry_times(), upper.values()
    states = np.arange(lo.size) if states is None else states
    fh.write(((_timestamp_line() if timestamp else "") + "state,lower,upper\n").encode())

    def tokens_of(a, b):
        s = states[a:b]
        cols = [s] + [np.where(np.isinf(t[s]), -1, t[s]) for t in (lo, up)]
        return np.column_stack(cols).astype(np.int32).ravel()

    _write_blocks(fh, np.full(states.size, 3), tokens_of, b",", (b"inf",))


def write_bounds(path, lower: EntryTimeTable, upper: SymbolicController,
                 timestamp: bool = True):
    with open(path, "wb") as fh:
        write_bounds_table(fh, lower, upper, timestamp=timestamp)


def parse_bounds(path, controller: SymbolicController | None = None):
    """Read a bounds CSV; returns (lower, upper) float arrays with inf sentinels.

    Row k must name state k, and no lower bound may exceed its upper bound.
    With a controller, the table must cover its states and its upper column
    must be the controller's values.
    """
    def on_line(lineno, line):
        if not (line.startswith("#") or line.startswith("state,")):
            raise FormatError(f"line {lineno}: malformed bounds row '{_shown(line)}'")

    with open(path, "rb") as fh:
        lines, counts, values = _scan(fh, 1, None, b",", 3, "bounds row", on_line, inf=True)
    _reject(lines, (counts != 1).any(axis=1), lambda i: "malformed bounds row")
    rows = values.reshape(-1, 3)
    states = rows[:, 0]
    _reject(lines, states != np.arange(states.size),
            lambda i: f"row for state {states[i]} where state {i} is due")
    lo, up = np.where(rows[:, 1:] < 0, np.inf, rows[:, 1:]).T
    _reject(lines, lo > up, lambda i: f"lower bound {fmt_entry_time(lo[i])} above upper bound "
                                      f"{fmt_entry_time(up[i])}")
    if controller is not None:
        if states.size != controller.num_states:
            raise FormatError(f"bounds file {path} covers {states.size} states, "
                              f"the controller {controller.num_states}")
        differ = np.flatnonzero(up != controller.values())
        if differ.size:
            x = int(differ[0])
            raise FormatError(f"bounds file {path}: upper bound of state {x} is "
                              f"{fmt_entry_time(up[x])}, the controller's value "
                              f"{fmt_entry_time(controller.values()[x])}")
    return lo, up


# -- trace, plot and report CSVs: rows of fields through one writer ---------------

def _write_csv(path, header, rows, timestamp: bool):
    """Write the timestamp comment (optional), then the header and each row
    as its fields joined by commas on a line of its own."""
    with open(path, "w") as fh:
        if timestamp:
            fh.write(_timestamp_line())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_trace(path, trace, dim: int, input_dim: int, timestamp: bool = True):
    # tolist gives Python floats, whose repr is `_fmt_num`'s, in one call a row
    rows = [[s.k, *map(repr, s.state.tolist()), *map(repr, s.input.tolist()), s.cell, s.value]
            for s in trace.steps]
    achieved = "none" if trace.achieved is None else trace.achieved
    rows.append([f"# reason={trace.reason} achieved={achieved}"])
    _write_csv(path, ["k", *(f"x{i+1}" for i in range(dim)),
                      *(f"u{i+1}" for i in range(input_dim)), "cell", "value"], rows, timestamp)


def write_plot(path, ctrl: SymbolicController, quantizer: Quantizer, timestamp: bool = True):
    """One row per winning cell: center, the input value the refined controller
    applies (`refine.applied_inputs`, empty on target cells), value."""
    winning = np.flatnonzero(ctrl.levels <= ctrl.num_states)
    applied = applied_inputs(ctrl)
    grid = quantizer.grid
    header = [f"x{i+1}" for i in range(grid.dim)] + [f"u{i+1}" for i in range(grid.input_dim)]
    inputs = grid.input_values()

    def row(x, cell):
        us = [""] * grid.input_dim if applied[x] == TARGET else map(_fmt_num, inputs[applied[x]])
        return [*map(_fmt_num, cell), *us, ctrl.levels[x] - 1]

    cells = quantizer.centers()[winning]
    _write_csv(path, header + ["value"], (row(x, c) for x, c in zip(winning, cells)), timestamp)


def write_report(path, rows, timestamp: bool = True):
    """The certification report of `simulate`. Each row is (trace id, reason, initial
    cell, lower, achieved, upper, obstacle visits, certified); None reads `none`."""
    _write_csv(path, ["trace", "reason", "initial_cell", "lower", "achieved", "upper",
                      "obstacle_visits", "certified"],
               ([i, reason, "none" if cell is None else cell, fmt_entry_time(lower),
                 "none" if achieved is None else achieved, fmt_entry_time(upper), visits,
                 "pass" if ok else "fail"]
                for i, reason, cell, lower, achieved, upper, visits, ok in rows), timestamp)
