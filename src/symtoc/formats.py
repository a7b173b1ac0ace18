"""Text file formats: STS1 systems, CTL1 controllers, bounds/trace/plot CSVs.

Formats are line oriented and diff friendly; floats are written with Python
repr so every file re-parses to a structurally identical object and repeated
runs are byte identical (a timestamp comment can be suppressed).

STS1 (`t x u : s ...`) and CTL1 (`c x v : u ...`) share one tagged-record
layout, written by `_write_tagged` and read by `_read_tagged`; one table,
`_GRID_META`, lists their `# grid:` metadata. The record lines and the bounds
CSV (`x,lower,upper`) go through one block codec built on numpy: `_render`
turns a block of lines into a uint8 buffer, and `_scan` reads a file in
blocks of about `_BLOCK_BYTES` bytes cut at the last newline and tokenizes
each block as a whole. Header, comment and `# grid:` lines are few and go
through plain Python. Memory beyond the arrays of the written or parsed
object is about ten times a block's size; blocks end only at newlines, so a
line longer than `_BLOCK_BYTES` makes its block that long.

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

from .abstraction import GridSpec, Quantizer
from .fts import FiniteSystem, segment_indices
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


def _parse_list(text) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(f"expected bracketed list, got '{text}'")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [float(t) for t in inner.replace(",", " ").split()]


# The `# grid:` metadata: each GridSpec field, in file order, with its kind,
# the (writer, reader) pair of its `key=value` text
_NUM = (_fmt_num, float)
_LIST = (lambda values: "[" + ",".join(map(_fmt_num, values)) + "]",
         lambda text: np.array(_parse_list(text)))
_FLAGS = (lambda flags: "[" + ",".join("1" if f else "0" for f in flags) + "]",
          lambda text: tuple(int(v) != 0 for v in _parse_list(text)))
_GRID_META = (("tau", _NUM), ("mu", _NUM), ("eta", _LIST), ("periodic", _FLAGS),
              ("domain_lower", _LIST), ("domain_upper", _LIST),
              ("input_lower", _LIST), ("input_upper", _LIST))


def _parse_grid(entries: dict) -> GridSpec | None:
    """The GridSpec of the `key=value` grid metadata; None when there is none."""
    if not entries:
        return None
    missing = {key for key, _ in _GRID_META} - entries.keys()
    if missing:
        raise FormatError(f"grid metadata missing keys: {sorted(missing)}")
    try:
        return GridSpec(**{key: kind[1](entries[key]) for key, kind in _GRID_META})
    except (ValueError, OverflowError) as e:  # int() of an infinite flag overflows
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
        _render(tokens_of(a, b), width[a:b], sep, words).tofile(fh)
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


def _tail_line(lines, tail_len, i):
    """Line number of the record holding tail value i."""
    return lines[int(np.searchsorted(np.cumsum(tail_len), i, side="right"))]


def _check_tail(lines, tail_len, tail, limit, message):
    """Reject the first tail value >= limit, naming its line."""
    if tail.size and tail.max() >= limit:
        i = int(np.argmax(tail >= limit))
        line = _tail_line(lines, tail_len, i)
        raise FormatError(f"line {line}: {message} {tail[i]} out of range")


def _key_order(key, lines, what):
    """Order that sorts the records by key, None when they already ascend;
    a duplicate key is rejected, naming its second line."""
    if (key[1:] > key[:-1]).all():
        return None
    order = np.argsort(key, kind="stable")
    dup = np.flatnonzero(key[order][1:] == key[order][:-1])
    if dup.size:
        raise FormatError(f"line {lines[order[dup[0] + 1]]}: duplicate {what}")
    return order


def _keyed_csr(key, size, lines, tail_len, tail, what):
    """(offsets, values) of a CSR over keys 0..size-1 holding each record's
    tail under its key; a duplicate key is rejected."""
    order = _key_order(key, lines, what)
    if order is not None:
        starts = np.cumsum(tail_len) - tail_len
        tail = tail[segment_indices(starts[order], tail_len[order])]
    offsets = np.zeros(size + 1, dtype=np.int64)
    offsets[key + 1] = tail_len
    np.cumsum(offsets, out=offsets)
    return offsets, tail


# -- STS1 and CTL1: tagged records -----------------------------------------------

def _write_tagged(path, magic, tag: bytes, n, m, grid, timestamp, rows, heads, offsets, flat):
    """Write the header, then one line `tag h0 h1 : flat[offsets[r]:offsets[r+1]]`
    per row r of `rows`; heads(rows) gives the h0 and h1 columns of a block."""
    text = magic + "\n" + (_timestamp_line() if timestamp else "")
    if grid is not None:
        entries = [f"{key}={kind[0](getattr(grid, key))}" for key, kind in _GRID_META]
        entries[:2] = [" ".join(entries[:2])]  # tau and mu share a line
        text += "".join(f"# grid: {entry}\n" for entry in entries)
    with open(path, "wb") as fh:
        fh.write(f"{text}states {n}\ninputs {m}\n".encode())
        _write_blocks(fh, np.diff(offsets)[rows] + 4,
                      lambda a, b: _tagged_tokens(heads(rows[a:b]), offsets, flat, rows[a:b]),
                      b" ", (tag, b":"))


def _read_tagged(path, magic, tag: bytes, what):
    """Read the header and the `tag a b : tail ...` records of a file.

    Returns the states and inputs counts, the grid (or None), the record line
    numbers, the a and b columns, the tail lengths and values, and the scanned
    tokens, which a caller holds until its CSR is built (freed first, their
    heap hole takes the CSR offsets and a later synthesis peaks higher in RSS).
    """
    header, grid_entries = {}, {}

    def on_line(lineno, line):
        if line.startswith("# grid:"):
            for token in line[len("# grid:"):].split():
                if "=" not in token:
                    raise FormatError(f"bad grid metadata token '{token}'")
                key, value = token.split("=", 1)
                grid_entries[key] = value
            return
        if line.startswith("#"):
            return
        key, *values = line.split()
        if key not in ("states", "inputs"):
            raise FormatError(f"line {lineno}: unrecognized line '{_shown(line)}'")
        if key in header:
            raise FormatError(f"line {lineno}: repeated '{key}' line")
        if not (len(values) == 1 and values[0].isascii() and values[0].isdigit()
                and len(values[0]) <= _MAX_DIGITS):
            raise FormatError(f"line {lineno}: '{key}' takes one decimal number")
        header[key] = (lineno, int(values[0]))

    with open(path, "rb") as fh:
        # read no further than the echo needs: a longer first line is no magic line
        head = fh.readline(_SHOWN_CHARS + 2)
        first = head.decode(errors="replace").strip()
        if first != magic or (len(head) == _SHOWN_CHARS + 2 and not head.endswith(b"\n")):
            article = "an" if magic == "STS1" else "a"
            raise FormatError(f"not {article} {magic} file (header '{_shown(first)}')")
        lines, counts, values = _scan(fh, 2, tag, b":", 2, what, on_line)
    if len(header) < 2:
        raise FormatError("missing states/inputs header")
    (states_line, n), (inputs_line, m) = header["states"], header["inputs"]
    if lines.size and lines[0] < max(states_line, inputs_line):
        raise FormatError(f"line {lines[0]}: {what} before states/inputs header")
    grid = _parse_grid(grid_entries)
    if grid is not None and grid.num_cells != n:
        raise FormatError("grid metadata cell count does not match the state count")
    if grid is not None and grid.num_inputs != m:
        raise FormatError("grid metadata input count does not match the input count")
    if (counts[:, 0] != 2).any():
        raise FormatError(f"line {lines[np.argmax(counts[:, 0] != 2)]}: malformed {what}")
    width = counts.sum(axis=1)
    start = np.cumsum(width) - width
    tail = np.ones(values.size, dtype=bool)
    tail[start] = tail[start + 1] = False
    return (n, m, grid, lines, values[start], values[start + 1], counts[:, 1], values[tail],
            values)


# -- STS1 system files ---------------------------------------------------

def write_system(path, sys: FiniteSystem, grid: GridSpec | None = None,
                 timestamp: bool = True):
    _write_tagged(path, "STS1", b"t", sys.num_states, sys.num_inputs, grid, timestamp,
                  np.flatnonzero(np.diff(sys._offsets) > 0),
                  lambda pairs: np.divmod(pairs, sys.num_inputs), sys._offsets, sys._targets)


def parse_system(path):
    """Read an STS1 file; returns (FiniteSystem, GridSpec or None)."""
    what = "transition line"
    n, m, grid, lines, x, u, tail_len, succ, _tokens = _read_tagged(path, "STS1", b"t", what)
    if (tail_len == 0).any():
        raise FormatError(f"line {lines[np.argmax(tail_len == 0)]}: empty successor list")
    bad = (x >= n) | (u >= m)
    if bad.any():
        raise FormatError(f"line {lines[np.argmax(bad)]}: state or input out of range")
    _check_tail(lines, tail_len, succ, n, "successor")
    pair = x.astype(np.int64) * m + u
    offsets, targets = _keyed_csr(pair, n * m, lines, tail_len, succ, "(state,input) " + what)
    return FiniteSystem.from_csr(n, m, offsets, targets), grid


# -- CTL1 controller files ------------------------------------------------

def write_controller(path, ctrl: SymbolicController, grid: GridSpec | None = None,
                     timestamp: bool = True):
    _write_tagged(path, "CTL1", b"c", ctrl.num_states, ctrl.num_inputs, grid, timestamp,
                  np.flatnonzero(ctrl.levels <= ctrl.num_states),
                  lambda x: (x, ctrl.levels[x] - 1), ctrl.offsets, ctrl.enabled_inputs_flat)


def parse_controller(path):
    """Read a CTL1 file; returns (SymbolicController, GridSpec or None)."""
    what = "controller line"
    n, m, grid, lines, x, value, tail_len, inputs, _ = _read_tagged(path, "CTL1", b"c", what)
    bad = (x >= n) | (value >= n)
    if bad.any():
        raise FormatError(f"line {lines[np.argmax(bad)]}: state or value out of range")
    empty = (value > 0) & (tail_len == 0)
    if empty.any():
        raise FormatError(f"line {lines[np.argmax(empty)]}: winning state without inputs")
    on_target = (value == 0) & (tail_len > 0)
    if on_target.any():
        raise FormatError(f"line {lines[np.argmax(on_target)]}: target state with inputs")
    _check_tail(lines, tail_len, inputs, m, "input")
    # refine.applied_inputs takes a row's first input to be its lowest
    ascending = np.ones(inputs.size, dtype=bool)
    ascending[1:] = inputs[1:] > inputs[:-1]
    ascending[(np.cumsum(tail_len) - tail_len)[tail_len > 0]] = True
    if not ascending.all():
        line = _tail_line(lines, tail_len, int(np.argmin(ascending)))
        raise FormatError(f"line {line}: inputs not strictly ascending")
    offsets, enabled = _keyed_csr(x, n, lines, tail_len, inputs, "controller state")
    levels = np.full(n, n + 1, dtype=np.int64)
    levels[x] = value + 1
    ctrl = SymbolicController(num_states=n, num_inputs=m, levels=levels, offsets=offsets,
                              enabled_inputs_flat=enabled)
    return ctrl, grid


# -- bounds CSV ------------------------------------------------------------

def _fmt_entry_time(v) -> str:
    return "inf" if math.isinf(v) else str(int(v))


def write_bounds(path, lower: EntryTimeTable, upper: SymbolicController,
                 timestamp: bool = True):
    lo, up = lower.entry_times(), upper.values()
    with open(path, "wb") as fh:
        fh.write(((_timestamp_line() if timestamp else "") + "state,lower,upper\n").encode())

        def tokens_of(a, b):
            cols = [np.arange(a, b)] + [np.where(np.isinf(t[a:b]), -1, t[a:b]) for t in (lo, up)]
            return np.column_stack(cols).astype(np.int32).ravel()

        _write_blocks(fh, np.full(lo.size, 3), tokens_of, b",", (b"inf",))


def parse_bounds(path):
    """Read a bounds CSV; returns (lower, upper) float arrays with inf sentinels.

    Rows may come in any order, but must name each state 0..n-1 once.
    """
    def on_line(lineno, line):
        if not (line.startswith("#") or line.startswith("state,")):
            raise FormatError(f"line {lineno}: malformed bounds row '{_shown(line)}'")

    with open(path, "rb") as fh:
        lines, counts, values = _scan(fh, 1, None, b",", 3, "bounds row", on_line, inf=True)
    if (counts != 1).any():
        raise FormatError(f"line {lines[np.argmax((counts != 1).any(axis=1))]}: "
                          "malformed bounds row")
    rows = values.reshape(-1, 3)
    states = rows[:, 0]
    order = _key_order(states, lines, "bounds state")
    ranked = states if order is None else states[order]
    gap = ranked != np.arange(states.size)
    if gap.any():
        k = int(np.argmax(gap))
        line = lines[k if order is None else order[k]]
        raise FormatError(f"line {line}: no row for state {k} before state {ranked[k]}")
    lo, up = np.empty((2, states.size))
    lo[states] = np.where(rows[:, 1] < 0, np.inf, rows[:, 1])
    up[states] = np.where(rows[:, 2] < 0, np.inf, rows[:, 2])
    return lo, up


# -- trace CSV ---------------------------------------------------------------

def write_trace(path, trace, dim: int, input_dim: int, timestamp: bool = True):
    header = ("k," + ",".join(f"x{i+1}" for i in range(dim)) + ","
              + ",".join(f"u{i+1}" for i in range(input_dim)) + ",cell,value\n")
    with open(path, "w") as fh:
        if timestamp:
            fh.write(_timestamp_line())
        fh.write(header)
        for s in trace.steps:
            xs = ",".join(_fmt_num(v) for v in s.state)
            us = ",".join(_fmt_num(v) for v in s.input)
            fh.write(f"{s.k},{xs},{us},{s.cell},{s.value}\n")
        achieved = "none" if trace.achieved is None else str(trace.achieved)
        fh.write(f"# reason={trace.reason} achieved={achieved}\n")


# -- controller plot CSV -------------------------------------------------------

def write_plot(path, ctrl: SymbolicController, quantizer: Quantizer | None = None,
               timestamp: bool = True):
    """One row per winning cell: center (or state id), the input the refined
    controller applies (`refine.applied_inputs`, empty on target cells), value."""
    winning = np.flatnonzero(ctrl.levels <= ctrl.num_states)
    applied = applied_inputs(ctrl)
    if quantizer is None:  # one column each: the state id and the input id
        header, fmt = ["state", "input"], str
        cells, inputs = winning[:, None], np.arange(ctrl.num_inputs)[:, None]
    else:
        grid = quantizer.grid
        header = ([f"x{i+1}" for i in range(grid.dim)]
                  + [f"u{i+1}" for i in range(grid.input_dim)])
        fmt, cells, inputs = _fmt_num, quantizer.centers()[winning], grid.input_values()
    with open(path, "w") as fh:
        if timestamp:
            fh.write(_timestamp_line())
        fh.write(",".join(header) + ",value\n")
        for x, cell in zip(winning, cells):
            if applied[x] == TARGET:
                us = "," * (inputs.shape[1] - 1)
            else:
                us = ",".join(fmt(v) for v in inputs[applied[x]])
            xs = ",".join(fmt(v) for v in cell)
            fh.write(f"{xs},{us},{ctrl.levels[x] - 1}\n")
