"""The STS2/CTL1/bounds block codec: pinned bytes, round trips, block
boundaries, and the inputs it accepts and rejects."""

import hashlib
import itertools
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symtoc import (EntryTimeTable, GridSpec, StateSet, SymbolicController,
                    extract_controller, formats, solve_optimistic, solve_pessimistic)

from helpers import enabled, line_grid, line_grid_meta, make_boxes, make_system, random_boxes


# -- pinned bytes ---------------------------------------------------------------

def _disabled_pairs():
    trans, boxes = {}, {}
    for x in range(12):
        for u in range(3):
            if (x + 2 * u) % 5 == 3:
                continue
            succ = {max(x - 1 - u, 0), (x * 7 + u) % 12 if u == 2 else max(x - 1, 0)}
            trans[(x, u)] = sorted(succ)
            start = max(x - 1 - u, 0)
            boxes[(x, u)] = (start, min(1 + (x + u) % 3, 12 - start))
    grid = line_grid(12, 3)
    return make_system(12, 3, trans), make_boxes(grid, boxes), grid


def _large_ids():
    trans = {(0, 0): [1], (7, 1): [0, 99999], (99, 0): [7, 123456],
             (1000, 1): [0], (99999, 0): [0, 1000], (123456, 1): [0, 9, 10, 99, 100000],
             (1, 1): [0]}
    boxes = {(0, 0): (1, 1), (7, 1): (99990, 10), (99, 0): (7, 3), (1000, 1): (0, 1),
             (99999, 0): (1000, 1), (123456, 1): (123450, 7), (1, 1): (0, 2)}
    grid = line_grid(123457, 2)
    return make_system(123457, 2, trans), make_boxes(grid, boxes), grid


def _gridded():
    grid = GridSpec(tau=0.5, eta=[0.2, 0.2, 2 * np.pi / 8], mu=0.25,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1, 1, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    trans = {(1, 0): [0, 2], (2, 3): [1], (3, 5): [2, 1], (0, 1): [0]}
    # one box across the heading seam and one around the whole circle
    boxes = {(1, 0): ([0, 1, 7], [2, 1, 2]), (2, 3): ([1, 0, 0], [1, 1, 8]),
             (3, 5): ([4, 4, 3], [2, 2, 3]), (0, 1): ([0, 0, 0], [1, 1, 1]),
             (9, 1): ([5, 5, 6], [1, 1, 1])}
    return make_system(grid.num_cells, grid.num_inputs, trans), make_boxes(grid, boxes), grid


def _case(name):
    """(boxes, system, grid, controller, lower table); the controller and the
    table are the system's, a game independent of the boxes."""
    if name == "no_transitions":
        system, grid, target = make_system(3, 2), line_grid(3, 2), []
        boxes = make_boxes(grid)
    else:
        system, boxes, grid = {"disabled_pairs": _disabled_pairs, "large_ids": _large_ids,
                               "gridded": _gridded}[name]()
        target = [0]
    W = StateSet(system.num_states, target)
    ctrl = extract_controller(system, W, solve_pessimistic(system, W))
    return boxes, system, grid, ctrl, solve_optimistic(system, W)


# sha256 of (STS2, CTL1, bounds CSV) with timestamp=False. The CTL1 and bounds
# hashes are of the bytes the per-line writers wrote before the block codec
# replaced them; those of the cases on a line grid were pinned without grid
# metadata before every artifact carried a grid, and their CTL1 bytes with the
# `# grid:` lines removed still hash to those earlier pins. The STS2 hashes
# were recorded when STS2 boxes replaced the STS1 successor lists.
PINNED = {
    "no_transitions": ("1dd120c16a807c10a781b9a15678a6724abbdb071b7345e17635c4540445a63e",
                       "d74115df4a48b8b265ffdd40c31e2d6a254569466d6aac76e87ef9ff7201e5dd",
                       "2ef3d4212c4391f1b00551e9d42cd127fc0f8ca4cc4a4242c2949b25e94d8d17"),
    "disabled_pairs": ("c22907c4e2af5f32a0b6c2e7ace1079bdcc5c6a9cecdb3f460aae08a27ffac8d",
                       "17c99cba5b90e93f6af245a80bd678795371b607afdc8413b556751fd801d6d5",
                       "035e8f8dfcdb2997c3b67ea2ddf467c5e375d641764e02e36331a72de5798fcc"),
    "large_ids": ("df029e8237568449a4bff3f8ad1afe3edd4a282a438ce0cfabed40173321aab7",
                  "bbd523dc5f5696781a09b5a3c6a65deec4c942e6b3701c66db47960fdaaf39cc",
                  "6018f44dfe647bfbd024515284f824ef2b21206bbc0a138e200690c37577d1a5"),
    "gridded": ("2688c9733b8e250fcb40eb6a968594ff1f4fcae6d34422e998daee0cecc5527f",
                "4355081b6b640c1f07e08d1c5c9897b8a7e6ab5204fbf39bb301860175256f5f",
                "a962c100c0be7ad81493e3cd4da8ec30bf31ad1e213501152678d96ab6d1c235"),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_controllers_equal(parsed, ctrl):
    assert (parsed.num_states, parsed.num_inputs) == (ctrl.num_states, ctrl.num_inputs)
    assert np.array_equal(parsed.levels, ctrl.levels)
    winning = ctrl.levels <= ctrl.num_states
    counts = np.where(winning, np.diff(ctrl.offsets), 0)
    assert np.array_equal(np.diff(parsed.offsets), counts)
    for x in np.flatnonzero(winning):
        assert np.array_equal(enabled(parsed, x), enabled(ctrl, x))
        # CTL1 stores the state's value; each input's worst value reads back as value - 1
        worst = parsed.worst_values_flat[parsed.offsets[x]:parsed.offsets[x + 1]]
        assert np.all(worst == ctrl.levels[x] - 2)


def _write_and_check(tmp_path, name):
    boxes, system, grid, ctrl, lower = _case(name)
    sts, ctl, csv = tmp_path / "a.sts", tmp_path / "a.ctl", tmp_path / "a.csv"
    formats.write_system(sts, boxes, timestamp=False)
    formats.write_controller(ctl, ctrl, grid=grid, timestamp=False)
    formats.write_bounds(csv, lower, ctrl, timestamp=False)
    assert (_sha(sts), _sha(ctl), _sha(csv)) == PINNED[name]
    parsed, grid2 = formats.parse_system(sts)
    assert parsed == boxes.expand() == _reference_parse_system(sts.read_text())
    assert grid2.num_cells == grid.num_cells and grid2.num_inputs == grid.num_inputs
    parsed_ctrl, _ = formats.parse_controller(ctl)
    _assert_controllers_equal(parsed_ctrl, ctrl)
    lo, up = formats.parse_bounds(csv)
    assert np.array_equal(lo, lower.entry_times()) and np.array_equal(up, ctrl.values())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_writers_reproduce_pinned_bytes(tmp_path, name):
    _write_and_check(tmp_path, name)


@pytest.mark.parametrize("block", [1, 3, 8, 29])
def test_tiny_blocks_split_lines(tmp_path, monkeypatch, block):
    """Lines straddle blocks and a header line spans many of them."""
    monkeypatch.setattr(formats, "_BLOCK_BYTES", block)
    for name in ("disabled_pairs", "gridded", "no_transitions"):
        _write_and_check(tmp_path, name)


def test_missing_final_newline_and_comment_after_records(tmp_path):
    path = tmp_path / "a.sts"
    path.write_bytes(f"STS2\n{line_grid_meta(3, 1)}states 3\ninputs 1\nshape 0 0 2\n"
                     "shape 0 1 1\nt 0 0 : 1 0\n# end\nt 1 0 : 2 1".encode())
    system, _ = formats.parse_system(path)
    assert system == make_system(3, 1, {(0, 0): [1, 2], (1, 0): [2]})


# -- round trips ------------------------------------------------------------------

@st.composite
def grids(draw):
    """Small grids of one to three axes, some periodic, one to four inputs."""
    dim = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim))
    periodic = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return GridSpec(tau=1.0, eta=1.0, mu=1.0, domain_lower=[0.0] * dim,
                    domain_upper=[float(k if p else k - 1) for k, p in zip(cells, periodic)],
                    input_lower=[0.0], input_upper=[float(draw(st.integers(0, 3)))],
                    periodic=tuple(periodic))


@st.composite
def boxes_on_grids(draw):
    grid = draw(grids())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return random_boxes(np.random.default_rng(seed), grid, density)


@st.composite
def controllers(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 5))
    levels = np.array(draw(st.lists(st.integers(1, n + 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    per_state = [draw(st.integers(1, m)) if 1 < lvl <= n else 0 for lvl in levels]
    enabled = [sorted(draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k)))
               for k in per_state]
    per_state = np.array(per_state, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(per_state))).astype(np.int64)
    flat = np.array([u for inputs in enabled for u in inputs], dtype=np.int32)
    return SymbolicController(n, m, levels, offsets, flat)


@settings(max_examples=60, deadline=None)
@given(boxes=boxes_on_grids(), block=st.sampled_from([5, 64, formats._BLOCK_BYTES]))
def test_system_round_trip_property(tmp_path_factory, boxes, block):
    path = tmp_path_factory.mktemp("sts") / "s.sts"
    with mock.patch.object(formats, "_BLOCK_BYTES", block):
        formats.write_system(path, boxes, timestamp=False)
        parsed, grid = formats.parse_system(path)
    assert parsed == boxes.expand()
    assert grid.periodic == boxes.grid.periodic
    again = path.with_suffix(".again")
    formats.write_system(again, formats._parse_boxes(path), timestamp=False)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(ctrl=controllers(), block=st.sampled_from([5, 64, formats._BLOCK_BYTES]))
def test_controller_and_bounds_round_trip_property(tmp_path_factory, ctrl, block):
    out = tmp_path_factory.mktemp("ctl")
    lower = EntryTimeTable(np.minimum(ctrl.levels, np.maximum(ctrl.levels - 1, 1)),
                           "optimistic", ctrl.num_states, 0)
    with mock.patch.object(formats, "_BLOCK_BYTES", block):
        formats.write_controller(out / "c.ctl", ctrl, line_grid(ctrl.num_states, ctrl.num_inputs),
                                 timestamp=False)
        formats.write_bounds(out / "b.csv", lower, ctrl, timestamp=False)
        parsed, _ = formats.parse_controller(out / "c.ctl")
        lo, up = formats.parse_bounds(out / "b.csv")
    _assert_controllers_equal(parsed, ctrl)
    assert np.array_equal(lo, lower.entry_times())
    assert np.array_equal(up, ctrl.values())


def _reference_parse_system(text):
    """Line-by-line STS2 reader that lists every cell of every box: what the
    block codec and `expand` must agree with."""
    lines = text.splitlines()
    assert lines[0].strip() == "STS2"
    header, shapes, trans, grid = {}, {}, {}, {}
    for line in lines[1:]:
        words = line.split()
        if line.strip().startswith("# grid:"):
            grid.update(w.split("=") for w in words[2:])
        if not words or words[0].startswith("#"):
            continue
        if words[0] == "shape":
            u, k, *counts = map(int, words[1:])
            shapes[(u, k)] = counts
        elif words[0] == "t":
            head, tail = " ".join(words[1:]).split(":")
            x, u = (int(v) for v in head.split())
            *starts, k = (int(v) for v in tail.split())
            trans[(x, u)] = (starts, shapes[(u, k)])
        else:
            header[words[0]] = int(words[1])
    periodic = [v == "1" for v in grid["periodic"].strip("[]").split(",")]
    K = [int(round((float(hi) - float(lo)) / float(eta))) + (not p)
         for lo, hi, eta, p in zip(*(grid[key].strip("[]").split(",")
                                     for key in ("domain_lower", "domain_upper", "eta")),
                                   periodic)]
    strides = np.cumprod([1] + K[:0:-1])[::-1]
    succ = {pair: [int(np.dot(strides, [(s + j) % k for s, j, k in zip(starts, offs, K)]))
                   for offs in itertools.product(*(range(c) for c in counts))]
            for pair, (starts, counts) in trans.items()}
    return make_system(header["states"], header["inputs"], succ)


def _reformat(text, rng):
    """The same STS2 content with other whitespace and comments; `# grid:`
    lines keep their text, and the lines their order."""
    out = []
    for i, line in enumerate(text.splitlines()):
        if i:  # the magic line stays first
            out += [rng.choice(["", "#", "# comment", " \t"]) for _ in range(rng.randrange(2))]
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in line.split()]
        body = line if line.startswith("# grid:") else \
            "".join(w + g for w, g in zip(line.split(), gaps)).rstrip()
        out.append(rng.choice(["", " ", "\t"]) + body)
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n"])


@settings(max_examples=60, deadline=None)
@given(boxes=boxes_on_grids(), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([7, formats._BLOCK_BYTES]))
def test_parse_agrees_with_line_reader(tmp_path_factory, boxes, seed, block):
    path = tmp_path_factory.mktemp("fmt") / "s.sts"
    formats.write_system(path, boxes, timestamp=False)
    text = _reformat(path.read_text(), random.Random(seed))
    path.write_bytes(text.encode())
    with mock.patch.object(formats, "_BLOCK_BYTES", block):
        parsed, _ = formats.parse_system(path)
    assert parsed == _reference_parse_system(text) == boxes.expand()


# -- accepted and rejected inputs ----------------------------------------------------

def test_sts2_accepts_whitespace_and_comments(tmp_path):
    path = tmp_path / "a.sts"
    path.write_bytes(b"STS2\r\n# written: then\r\n states  4 \r\n\r\ninputs\t2\r\n\r\n"
                     + line_grid_meta(4, 2).replace("\n", "\r\n").encode()
                     + b"shape 0 0 1\r\n shape\t0 1  2\r\n"
                     b"t 0 0 :\t0 0\r\n"
                     b"   t 1 0 : 2 1\r\n"
                     b"# between\r\n\r\nshape 1 0 2\r\n"
                     b"t\t0\t1 : 1\t0\r\n"
                     b"t 3 1 : 2 0   \r\n")
    system, grid = formats.parse_system(path)
    assert (grid.num_cells, grid.num_inputs) == (4, 2)
    assert system == make_system(4, 2, {(1, 0): [2, 3], (0, 1): [1, 2], (0, 0): [0],
                                        (3, 1): [2, 3]})


def test_ctl1_and_bounds_accept_whitespace_and_comments(tmp_path):
    ctl = tmp_path / "a.ctl"
    # inputs ascend within each row; across rows (1 | 0 1) they need not
    ctl.write_bytes(b"CTL1\r\nstates 3\r\ninputs 2\r\n" + line_grid_meta(3, 2).encode()
                    + b"\r\n# target\r\n  c 0 0 :\r\nc 1 2 : 1\r\n\tc 2 1 : 0 1\r\n")
    ctrl, _ = formats.parse_controller(ctl)
    assert ctrl.levels.tolist() == [1, 3, 2]
    assert enabled(ctrl, 2).tolist() == [0, 1] and enabled(ctrl, 1).tolist() == [1]
    assert enabled(ctrl, 0).size == 0
    csv = tmp_path / "b.csv"
    csv.write_bytes(b"# written: then\r\nstate,lower,upper\r\n 0, 0 ,0\r\n\r\n# unreached\r\n"
                    b"1,1,\tinf\r\n2,inf,inf\r\n")
    lo, up = formats.parse_bounds(csv)
    assert lo.tolist() == [0, 1, np.inf] and up.tolist() == [0, np.inf, np.inf]


GRID = line_grid_meta(2, 1)
COUNTS = "states 2\ninputs 1\n"
HEAD = "STS2\n" + GRID + COUNTS + "shape 0 0 1\n"


@pytest.mark.parametrize("text, match", [
    pytest.param(HEAD + "t 0 0 : 1 0\nt 0 0 : 0 0\n",
                 r"line 7: record of cell 0 and input 0 repeated or out of order",
                 id="duplicate-pair"),
    pytest.param("STS2\n" + GRID + "t 0 0 : 1 0\n" + COUNTS, r"line 3: transition line before",
                 id="record-before-header"),
    pytest.param(HEAD + "t 0 0 1 : 1 0\n", r"line 6: malformed transition line", id="three-heads"),
    pytest.param(HEAD + "t 0 0 :\n",
                 r"line 6: malformed transition line: expected 1 start and a shape id",
                 id="empty-successors"),
    pytest.param(HEAD + "x 0 0 : 1 0\n", r"line 6: unrecognized line", id="unknown-tag"),
    pytest.param(HEAD + "initial 0 1\n", r"line 6: unrecognized line 'initial 0 1'",
                 id="initial-line"),
    pytest.param("STS2\n" + GRID + "states 2\nt 0 0 : 1 0\n", r"missing states/inputs header",
                 id="missing-inputs"),
    pytest.param(HEAD + "t 0 0 : 5 0\n", r"line 6: start 5 on axis x1 off the grid's 2 cells",
                 id="successor-out-of-range"),
    pytest.param(HEAD + "shape 0 0 1\n", r"line 6: shape 0 of input 0 where its shape 1 is due",
                 id="repeated-successor"),
    pytest.param(HEAD + "t 1 0 : 0 0\nt 0 0 : 1 0\n",
                 r"line 7: record of cell 0 and input 0 repeated or out of order",
                 id="descending-successors"),
    pytest.param(HEAD + "t 0 0 : a 0\n", r"line 6: unexpected character 'a'", id="letter"),
    pytest.param(HEAD + "t 0 0 : -1 0\n", r"line 6: unexpected character '-'", id="minus-sign"),
    pytest.param(HEAD + "t 0 0 : +1 0\n", r"line 6: unexpected character '\+'", id="plus-sign"),
    pytest.param(HEAD + "t 0 0 : 1 : 0\n", r"line 6: expected 1 ':'", id="two-colons"),
    pytest.param(HEAD + "t 0 0 1 0\n", r"line 6: expected 1 ':'", id="no-colon"),
    pytest.param(HEAD + "t 0 1 : 1 0\n", r"line 6: state or input out of range",
                 id="input-out-of-range"),
    pytest.param(HEAD + "t 0 0 : 1234567890 0\n", r"line 6: number out of range",
                 id="ten-digits"),
    pytest.param("STS2\n" + GRID + "states -2\ninputs 1\n",
                 r"line 3: 'states' takes one decimal number",
                 id="negative-states"),
    pytest.param("STS2\n" + GRID + "states 2\ninputs 1 1\n",
                 r"line 4: 'inputs' takes one decimal number",
                 id="two-input-counts"),
    pytest.param("STS2\n" + GRID + "states 2\nstates 2\ninputs 1\n", r"line 4: repeated 'states'",
                 id="repeated-states"),
    pytest.param("STS2\n" + GRID.replace("tau=1", "tau=x") + COUNTS, r"bad grid metadata",
                 id="grid-bad-number"),
    pytest.param("STS2\n" + GRID.replace("periodic=[0]", "periodic=[inf]") + COUNTS,
                 r"bad grid metadata: periodic flag 'inf' is not 0 or 1", id="grid-infinite-flag"),
    pytest.param("STS2\n" + GRID.replace("periodic=[0]", "periodic=[0.5]") + COUNTS,
                 r"bad grid metadata: periodic flag '0.5' is not 0 or 1", id="grid-fractional-flag"),
    pytest.param("STS2\n" + GRID + "# grid: tau=5.0\n" + COUNTS,
                 r"line 3: repeated grid key 'tau'", id="grid-repeated-key"),
    pytest.param("STS2\n# grid: bogus=7\n" + GRID + COUNTS, r"line 2: unknown grid key 'bogus'",
                 id="grid-unknown-key"),
    pytest.param("STS2\n" + GRID + "# grid: tau\n" + COUNTS,
                 r"line 3: bad grid metadata token 'tau'", id="grid-bad-token"),
    pytest.param("STS2\n" + COUNTS + "t 0 0 : 1 0\n",
                 r"^no '# grid:' metadata: symtoc reads gridded systems only$", id="no-grid"),
    pytest.param("nope\n", r"not an STS2 file", id="wrong-magic"),
    pytest.param("", r"not an STS2 file", id="empty-file"),
    pytest.param("STS2" + " " * 60 + "\n" + GRID + COUNTS, r"not an STS2 file \(header 'STS2'\)",
                 id="overlong-magic-line"),
    # the shape lines; the box records' own faults are in test_cli.py
    pytest.param(HEAD + "shape 1 0 1\n", r"line 6: input 1 out of range",
                 id="shape-input-out-of-range"),
    pytest.param(HEAD + "shape 0 1\n", r"line 6: 'shape' takes an input, a shape id and 1 counts",
                 id="shape-without-counts"),
])
def test_sts1_rejects(tmp_path, text, match):
    """Malformed system files. The test keeps its name from the STS1 format;
    its texts are STS2, whose records `t x u : s k` name one box on a line grid."""
    path = tmp_path / "bad.sts"
    path.write_text(text)
    with pytest.raises(formats.FormatError, match=match):
        formats.parse_system(path)


def test_sts2_box_across_the_seam_and_around_the_circle(tmp_path):
    """On a periodic axis a box may run past the last cell, and a box of all
    the axis's cells may start anywhere: both list their cells in ascending
    order."""
    meta = line_grid_meta(4, 1).replace("periodic=[0]", "periodic=[1]").replace(
        "domain_upper=[3]", "domain_upper=[4]")
    path = tmp_path / "ring.sts"
    path.write_text(f"STS2\n{meta}states 4\ninputs 1\nshape 0 0 2\nshape 0 1 4\n"
                    "t 0 0 : 3 0\nt 1 0 : 2 1\nt 2 0 : 1 0\n")
    system, grid = formats.parse_system(path)
    assert grid.periodic == (True,)
    assert system == make_system(4, 1, {(0, 0): [0, 3], (1, 0): [0, 1, 2, 3], (2, 0): [1, 2]})


def test_write_controller_checks_its_grid(tmp_path):
    # a grid of other counts would make a file that every command refuses
    system = make_system(3, 1, {(0, 0): [1], (1, 0): [2]})
    W = StateSet(3, [2])
    ctrl = extract_controller(system, W, solve_pessimistic(system, W))
    path = tmp_path / "c.ctl"
    for grid in (line_grid(4, 1), line_grid(3, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"the controller has 3 states and 1 inputs, its grid {grid.num_cells} cells "
                f"and {grid.num_inputs} inputs")):
            formats.write_controller(path, ctrl, grid, timestamp=False)
        assert not path.exists()


def test_magic_line_read_is_bounded(tmp_path):
    """A file without a newline is rejected after its first few bytes, not read whole."""
    path = tmp_path / "flat.sts"
    path.write_bytes(b"x" * (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(formats.FormatError, match=r"header 'x{40}\.\.\.'"):
            formats.parse_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _ctl1(n, m, records):
    """A CTL1 text of n states and m inputs on line_grid(n, m)."""
    return f"CTL1\n{line_grid_meta(n, m)}states {n}\ninputs {m}\n{records}"


@pytest.mark.parametrize("text, match", [
    pytest.param(_ctl1(2, 1, "c 1 1 :\n"), r"line 5: winning state without inputs",
                 id="winning-without-inputs"),
    pytest.param(_ctl1(2, 1, "c 2 0 :\n"), r"line 5: state or value out of range",
                 id="state-out-of-range"),
    pytest.param(_ctl1(2, 1, "c 1 1 : 1\n"), r"line 5: input 1 out of range",
                 id="input-out-of-range"),
    pytest.param(_ctl1(2, 1, "c 0 0 :\nc 0 0 :\n"),
                 r"line 6: record of state 0 repeated or out of order \(records ascend by state\)",
                 id="duplicate-state"),
    pytest.param(_ctl1(3, 2, "c 0 0 :\nc 2 1 : 0\nc 1 2 : 1\n"),
                 r"line 7: record of state 1 repeated or out of order", id="descending-states"),
    pytest.param(_ctl1(3, 2, "c 2 1 : 0\nc 0 0 :\n"),
                 r"line 6: record of state 0 repeated or out of order", id="target-after-winning"),
    pytest.param(_ctl1(3, 2, "c 0 0 : 1\n"), r"line 5: target state with inputs",
                 id="target-with-inputs"),
    pytest.param(_ctl1(3, 2, "c 2 1 : 1 1\n"),
                 r"line 5: inputs not strictly ascending", id="repeated-input"),
    pytest.param(_ctl1(3, 2, "c 1 1 : 0\nc 0 0 :\nc 2 1 : 1 0\n"),
                 r"line 7: inputs not strictly ascending", id="descending-inputs"),
    pytest.param(_ctl1(2, 1, "initial 0\n"), r"line 5: unrecognized line",
                 id="initial-line"),
    pytest.param(_ctl1(2, 1, "").replace("periodic=[0]", "periodic=[-0]"),
                 r"bad grid metadata: periodic flag '-0' is not 0 or 1", id="grid-signed-flag"),
    pytest.param("CTL1\nstates 2\ninputs 1\nc 0 0 :\n",
                 r"^no '# grid:' metadata: symtoc reads gridded systems only$", id="no-grid"),
    pytest.param("STS1\nstates 2\n", r"not a CTL1 file", id="wrong-magic"),
])
def test_ctl1_rejects(tmp_path, text, match):
    path = tmp_path / "bad.ctl"
    path.write_text(text)
    with pytest.raises(formats.FormatError, match=match):
        formats.parse_controller(path)


@pytest.mark.parametrize("row, match", [
    ("1,2", r"line 2: expected 2 ','"),
    ("1,2,3,4", r"line 2: expected 2 ','"),
    ("1,,2", r"line 2: malformed bounds row"),
    ("1,x,2", r"line 2: unexpected character 'x'"),
    ("1,-1,2", r"line 2: unexpected character '-'"),
    ("1,2.5,3", r"line 2: unexpected character '.'"),
    ("1,infinity,2", r"line 2: unexpected character 't'"),
    ("1,nf,2", r"line 2: malformed number"),
    ("1,nif,2", r"line 2: malformed number"),
    ("1,12inf,2", r"line 2: malformed number"),
    ("inf,1,2", r"line 2: malformed bounds row 'inf,1,2'"),
    ("0,1,2\n1,0,0\n1,5,5\n2,inf,inf", r"line 4: row for state 1 where state 2 is due"),
    ("2,1,1\n0,1,2\n2,inf,inf\n1,0,0", r"line 2: row for state 2 where state 0 is due"),
    ("0,1,2\n2,inf,inf", r"line 3: row for state 2 where state 1 is due"),
    ("3,1,1\n0,1,2\n2,inf,inf", r"line 2: row for state 3 where state 0 is due"),
    ("1,1,1", r"line 2: row for state 1 where state 0 is due"),
    ("0,0,0\n2,1,1\n1,1,1", r"line 3: row for state 2 where state 1 is due"),
    ("0,0,0\n1,5,2", r"line 3: lower bound 5 above upper bound 2"),
    ("0,inf,2", r"line 2: lower bound inf above upper bound 2"),
])
def test_bounds_rejects(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"state,lower,upper\n{row}\n")
    with pytest.raises(formats.FormatError, match=match):
        formats.parse_bounds(path)
