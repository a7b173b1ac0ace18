"""The STS1/CTL1/bounds block codec: pinned bytes, round trips, block
boundaries, and the inputs it accepts and rejects."""

import hashlib
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symtoc import (EntryTimeTable, GridSpec, StateSet, SymbolicController,
                    extract_controller, formats, solve_optimistic, solve_pessimistic)

from helpers import enabled, line_grid, line_grid_meta, make_system


# -- pinned bytes ---------------------------------------------------------------

def _disabled_pairs():
    trans = {}
    for x in range(12):
        for u in range(3):
            if (x + 2 * u) % 5 == 3:
                continue
            succ = {max(x - 1 - u, 0), (x * 7 + u) % 12 if u == 2 else max(x - 1, 0)}
            trans[(x, u)] = sorted(succ)
    return make_system(12, 3, trans), line_grid(12, 3)


def _large_ids():
    trans = {(0, 0): [1], (7, 1): [0, 99999], (99, 0): [7, 123456],
             (1000, 1): [0], (99999, 0): [0, 1000], (123456, 1): [0, 9, 10, 99, 100000],
             (1, 1): [0]}
    return make_system(123457, 2, trans), line_grid(123457, 2)


def _gridded():
    grid = GridSpec(tau=0.5, eta=[0.2, 0.2, 2 * np.pi / 8], mu=0.25,
                    domain_lower=[0, 0, -np.pi], domain_upper=[1, 1, np.pi],
                    input_lower=[0, -0.5], input_upper=[0.5, 0.5],
                    periodic=(False, False, True))
    trans = {(1, 0): [0, 2], (2, 3): [1], (3, 5): [2, 1], (0, 1): [0]}
    return make_system(grid.num_cells, grid.num_inputs, trans), grid


def _case(name):
    """(system, grid, controller, lower table)."""
    if name == "no_transitions":
        system, grid, target = make_system(3, 2), line_grid(3, 2), []
    else:
        system, grid = {"disabled_pairs": _disabled_pairs, "large_ids": _large_ids,
                        "gridded": _gridded}[name]()
        target = [0]
    W = StateSet(system.num_states, target)
    ctrl = extract_controller(system, W, solve_pessimistic(system, W))
    return system, grid, ctrl, solve_optimistic(system, W)


# sha256 of (STS1, CTL1, bounds CSV) with timestamp=False, as written by the
# per-line writers that the block codec replaced; the STS1 hashes are of those
# bytes without the `initial` header line, which STS1 no longer has. The cases
# on a line grid were pinned without grid metadata before every artifact
# carried a grid; with their `# grid:` lines removed, their STS1 and CTL1 bytes
# still hash to those earlier pins.
PINNED = {
    "no_transitions": ("bd5207df96f12b9cf4bd2c35bae0e18816a43d34b6ad4732af73fafe1c0e28bb",
                       "d74115df4a48b8b265ffdd40c31e2d6a254569466d6aac76e87ef9ff7201e5dd",
                       "2ef3d4212c4391f1b00551e9d42cd127fc0f8ca4cc4a4242c2949b25e94d8d17"),
    "disabled_pairs": ("b10c587997ca7baff9670fcc508d94c6306624e1013dffd1a701d80b942419b3",
                       "17c99cba5b90e93f6af245a80bd678795371b607afdc8413b556751fd801d6d5",
                       "035e8f8dfcdb2997c3b67ea2ddf467c5e375d641764e02e36331a72de5798fcc"),
    "large_ids": ("7af719123c9394f988fd6b270d0072d0b9b6c6784a8ee699f37eef3db7a84399",
                  "bbd523dc5f5696781a09b5a3c6a65deec4c942e6b3701c66db47960fdaaf39cc",
                  "6018f44dfe647bfbd024515284f824ef2b21206bbc0a138e200690c37577d1a5"),
    "gridded": ("12f00de8bce06f9baca4d7ba9cbe99b128fc9b15bfd6597a26a099837427d59f",
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
    system, grid, ctrl, lower = _case(name)
    sts, ctl, csv = tmp_path / "a.sts", tmp_path / "a.ctl", tmp_path / "a.csv"
    formats.write_system(sts, system, grid=grid, timestamp=False)
    formats.write_controller(ctl, ctrl, grid=grid, timestamp=False)
    formats.write_bounds(csv, lower, ctrl, timestamp=False)
    assert (_sha(sts), _sha(ctl), _sha(csv)) == PINNED[name]
    parsed, grid2 = formats.parse_system(sts)
    assert parsed == system
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
    path.write_bytes(f"STS1\n{line_grid_meta(3, 1)}states 3\ninputs 1\nt 0 0 : 1 2\n# end\n"
                     "t 1 0 : 2".encode())
    system, _ = formats.parse_system(path)
    assert system == make_system(3, 1, {(0, 0): [1, 2], (1, 0): [2]})


# -- round trips ------------------------------------------------------------------

@st.composite
def systems(draw):
    n = draw(st.one_of(st.integers(1, 30), st.integers(99_990, 100_010)))
    m = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          max_size=25, unique=True))
    trans = {p: draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)) for p in pairs}
    return make_system(n, m, trans)


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
@given(system=systems(), block=st.sampled_from([5, 64, formats._BLOCK_BYTES]))
def test_system_round_trip_property(tmp_path_factory, system, block):
    path = tmp_path_factory.mktemp("sts") / "s.sts"
    with mock.patch.object(formats, "_BLOCK_BYTES", block):
        formats.write_system(path, system, line_grid(system.num_states, system.num_inputs),
                             timestamp=False)
        parsed, grid = formats.parse_system(path)
    assert parsed == system
    again = path.with_suffix(".again")
    formats.write_system(again, parsed, grid, timestamp=False)
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
    """Line-by-line STS1 reader: what the block codec must agree with."""
    lines = text.splitlines()
    assert lines[0].strip() == "STS1"
    header, trans = {}, {}
    for line in lines[1:]:
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if words[0] == "t":
            head, tail = " ".join(words[1:]).split(":")
            x, u = (int(v) for v in head.split())
            trans[(x, u)] = [int(v) for v in tail.split()]
        else:
            header[words[0]] = [int(v) for v in words[1:]]
    return make_system(header["states"][0], header["inputs"][0], trans)


def _reformat(text, rng):
    """The same STS1 content with other whitespace, comments and line order;
    `# grid:` lines keep their text."""
    head, records = [], []
    for line in text.splitlines():
        (records if line.startswith("t ") else head).append(line)
    rng.shuffle(records)
    out = []
    for i, line in enumerate(head + records):
        if i:  # the magic line stays first
            out += [rng.choice(["", "#", "# comment", " \t"]) for _ in range(rng.randrange(2))]
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in line.split()]
        body = line if line.startswith("# grid:") else \
            "".join(w + g for w, g in zip(line.split(), gaps)).rstrip()
        out.append(rng.choice(["", " ", "\t"]) + body)
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n"])


@settings(max_examples=60, deadline=None)
@given(system=systems(), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([7, formats._BLOCK_BYTES]))
def test_parse_agrees_with_line_reader(tmp_path_factory, system, seed, block):
    path = tmp_path_factory.mktemp("fmt") / "s.sts"
    formats.write_system(path, system, line_grid(system.num_states, system.num_inputs),
                         timestamp=False)
    text = _reformat(path.read_text(), random.Random(seed))
    path.write_bytes(text.encode())
    with mock.patch.object(formats, "_BLOCK_BYTES", block):
        parsed, _ = formats.parse_system(path)
    assert parsed == _reference_parse_system(text) == system


# -- accepted and rejected inputs ----------------------------------------------------

def test_sts1_accepts_whitespace_comments_and_any_pair_order(tmp_path):
    path = tmp_path / "a.sts"
    path.write_bytes(b"STS1\r\n# written: then\r\n states  4 \r\n\r\ninputs\t2\r\n\r\n"
                     + line_grid_meta(4, 2).replace("\n", "\r\n").encode()
                     + b"t 1 0 : 2\t3\r\n"
                     b"   t 0 1 : 1 2\r\n"
                     b"# between\r\n\r\n"
                     b"t\t0\t0 :\t0\r\n"
                     b"t 3 1 : 0   \r\n")
    system, grid = formats.parse_system(path)
    assert (grid.num_cells, grid.num_inputs) == (4, 2)
    assert system == make_system(4, 2, {(1, 0): [2, 3], (0, 1): [1, 2], (0, 0): [0],
                                        (3, 1): [0]})


def test_ctl1_and_bounds_accept_whitespace_and_any_order(tmp_path):
    ctl = tmp_path / "a.ctl"
    # inputs ascend within each row; across rows (0 1 | 1) they need not
    ctl.write_bytes(b"CTL1\r\nstates 3\r\ninputs 2\r\n" + line_grid_meta(3, 2).encode()
                    + b"c 2 1 : 0 1\r\nc 1 2 : 1\r\n\r\n# target\r\n  c 0 0 :\r\n")
    ctrl, _ = formats.parse_controller(ctl)
    assert ctrl.levels.tolist() == [1, 3, 2]
    assert enabled(ctrl, 2).tolist() == [0, 1] and enabled(ctrl, 1).tolist() == [1]
    assert enabled(ctrl, 0).size == 0
    csv = tmp_path / "b.csv"
    csv.write_bytes(b"# written: then\r\nstate,lower,upper\r\n2,inf,inf\r\n 0, 0 ,0\r\n1,1,\tinf\r\n")
    lo, up = formats.parse_bounds(csv)
    assert lo.tolist() == [0, 1, np.inf] and up.tolist() == [0, np.inf, np.inf]


GRID = line_grid_meta(2, 1)
COUNTS = "states 2\ninputs 1\n"
HEAD = "STS1\n" + GRID + COUNTS


@pytest.mark.parametrize("text, match", [
    pytest.param(HEAD + "t 0 0 : 1\nt 0 0 : 0\n", r"line 6: duplicate", id="duplicate-pair"),
    pytest.param("STS1\n" + GRID + "t 0 0 : 1\n" + COUNTS, r"line 3: transition line before",
                 id="record-before-header"),
    pytest.param(HEAD + "t 0 0 1 : 1\n", r"line 5: malformed transition line", id="three-heads"),
    pytest.param(HEAD + "t 0 0 :\n", r"line 5: empty successor", id="empty-successors"),
    pytest.param(HEAD + "x 0 0 : 1\n", r"line 5: unrecognized line", id="unknown-tag"),
    pytest.param(HEAD + "initial 0 1\n", r"line 5: unrecognized line 'initial 0 1'",
                 id="initial-line"),
    pytest.param("STS1\n" + GRID + "states 2\nt 0 0 : 1\n", r"missing states/inputs header",
                 id="missing-inputs"),
    pytest.param(HEAD + "t 0 0 : 5\n", r"line 5: successor 5 out of range",
                 id="successor-out-of-range"),
    pytest.param(HEAD + "t 0 0 : 1 1\n", r"line 5: successors not strictly ascending",
                 id="repeated-successor"),
    pytest.param(HEAD + "t 1 0 : 0\nt 0 0 : 1 0\n", r"line 6: successors not strictly ascending",
                 id="descending-successors"),
    pytest.param(HEAD + "t 0 0 : a\n", r"line 5: unexpected character 'a'", id="letter"),
    pytest.param(HEAD + "t 0 0 : -1\n", r"line 5: unexpected character '-'", id="minus-sign"),
    pytest.param(HEAD + "t 0 0 : +1\n", r"line 5: unexpected character '\+'", id="plus-sign"),
    pytest.param(HEAD + "t 0 0 : 1 : 1\n", r"line 5: expected 1 ':'", id="two-colons"),
    pytest.param(HEAD + "t 0 0 1\n", r"line 5: expected 1 ':'", id="no-colon"),
    pytest.param(HEAD + "t 0 1 : 1\n", r"line 5: state or input out of range",
                 id="input-out-of-range"),
    pytest.param(HEAD + "t 0 0 : 1234567890\n", r"line 5: number out of range",
                 id="ten-digits"),
    pytest.param("STS1\n" + GRID + "states -2\ninputs 1\n",
                 r"line 3: 'states' takes one decimal number",
                 id="negative-states"),
    pytest.param("STS1\n" + GRID + "states 2\ninputs 1 1\n",
                 r"line 4: 'inputs' takes one decimal number",
                 id="two-input-counts"),
    pytest.param("STS1\n" + GRID + "states 2\nstates 2\ninputs 1\n", r"line 4: repeated 'states'",
                 id="repeated-states"),
    pytest.param("STS1\n" + GRID.replace("tau=1", "tau=x") + COUNTS, r"bad grid metadata",
                 id="grid-bad-number"),
    pytest.param("STS1\n" + GRID.replace("periodic=[0]", "periodic=[inf]") + COUNTS,
                 r"bad grid metadata: cannot convert float infinity", id="grid-infinite-flag"),
    pytest.param("STS1\n" + GRID + "# grid: tau=5.0\n" + COUNTS,
                 r"line 3: repeated grid key 'tau'", id="grid-repeated-key"),
    pytest.param("STS1\n# grid: bogus=7\n" + GRID + COUNTS, r"line 2: unknown grid key 'bogus'",
                 id="grid-unknown-key"),
    pytest.param("STS1\n" + GRID + "# grid: tau\n" + COUNTS,
                 r"line 3: bad grid metadata token 'tau'", id="grid-bad-token"),
    pytest.param("STS1\n" + COUNTS + "t 0 0 : 1\n",
                 r"^no '# grid:' metadata: symtoc reads gridded systems only$", id="no-grid"),
    pytest.param("nope\n", r"not an STS1 file", id="wrong-magic"),
    pytest.param("", r"not an STS1 file", id="empty-file"),
    pytest.param("STS1" + " " * 60 + "\n" + GRID + COUNTS, r"not an STS1 file \(header 'STS1'\)",
                 id="overlong-magic-line"),
])
def test_sts1_rejects(tmp_path, text, match):
    path = tmp_path / "bad.sts"
    path.write_text(text)
    with pytest.raises(formats.FormatError, match=match):
        formats.parse_system(path)


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
                 r"line 6: duplicate controller state", id="duplicate-state"),
    pytest.param(_ctl1(3, 2, "c 0 0 : 1\n"), r"line 5: target state with inputs",
                 id="target-with-inputs"),
    pytest.param(_ctl1(3, 2, "c 2 1 : 1 1\n"),
                 r"line 5: inputs not strictly ascending", id="repeated-input"),
    pytest.param(_ctl1(3, 2, "c 1 1 : 0\nc 0 0 :\nc 2 1 : 1 0\n"),
                 r"line 7: inputs not strictly ascending", id="descending-inputs"),
    pytest.param(_ctl1(2, 1, "initial 0\n"), r"line 5: unrecognized line",
                 id="initial-line"),
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
    ("0,1,2\n1,0,0\n1,5,5\n2,inf,inf", r"line 4: duplicate bounds state"),
    ("2,1,1\n0,1,2\n2,inf,inf\n1,0,0", r"line 4: duplicate bounds state"),
    ("0,1,2\n2,inf,inf", r"line 3: no row for state 1 before state 2"),
    ("3,1,1\n0,1,2\n2,inf,inf", r"line 4: no row for state 1 before state 2"),
    ("1,1,1", r"line 2: no row for state 0 before state 1"),
])
def test_bounds_rejects(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"state,lower,upper\n{row}\n")
    with pytest.raises(formats.FormatError, match=match):
        formats.parse_bounds(path)
