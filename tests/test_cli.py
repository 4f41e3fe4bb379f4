import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mmtensor as mm
from mmtensor import read_tensor_file, write_group_file
from mmtensor.cli import run

from conftest import three_cycle_group


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _split_strassen(x, y):
    """Strassen with its first term, (I, I, I), split into copies x and y."""
    first, *rest = mm.strassen().terms
    return mm.Tensor(2, [first.scaled(x), first.scaled(y), *rest])


def _respelled(text):
    """text with comments, blank lines, leading spaces and CRLF endings."""
    return "# the variant at lambda = 3/4\r\n\r\n" + "".join(
        f"  {line}  # line {i}\r\n\r\n"
        for i, line in enumerate(text.splitlines(), 1))


def _dense_image(t, *rows):
    return mm.act(mm.Isotropy(*map(mm.Matrix, rows)), t)


_LAD, _unit = mm.laderman(), mm.Matrix.unit
_VARIANT_3_4 = mm.write_tensor_file(mm.laderman_variant("3/4"), lam="3/4")
# Tensor files built with the library: each name's tensor or file text.
CRAFTED = {
    "laderman-less-one": lambda: mm.Tensor(3, _LAD.terms[1:]),
    # One Brent failure, ((1,2),(3,3),(1,1)), met by two projections.
    "classical-3-plus-third": lambda: mm.Tensor(3, [
        *mm.classical(3).terms,
        mm.term(_unit(3, 1, 2), _unit(3, 3, 3).scale("1/3"), _unit(3, 1, 1))]),
    # Every projection merges to no term.
    "laderman-cancelled": lambda: mm.combine(_LAD, 1, _LAD, -1),
    # Each pair of copies merges back into one term.
    "laderman-doubled": lambda: mm.combine(_LAD, 2, _LAD, -1),
    # verify reads the lowest-terms form: 1/3 + 2/3 = 1, 1/3 + 5/6 != 1.
    "strassen-split-thirds": lambda: _split_strassen("1/3", "2/3"),
    "strassen-split-uneven": lambda: _split_strassen("1/3", "5/6"),
    "variant-3-4": lambda: _VARIANT_3_4,
    "variant-3-4-respelled": lambda: _respelled(_VARIANT_3_4),
    # Dense L.U images, whose expansion takes the packed accumulation; the
    # p/q one has a 161-bit lane bound, three 64-bit words per lane.
    "laderman-dense": lambda: _dense_image(
        _LAD, [[2, 1, 1], [1, 1, 0], [1, 1, 1]],
        [[1, 2, -1], [1, 3, -1], [-1, -1, 2]],
        [[1, 1, 1], [1, 2, 2], [1, 2, 3]]),
    "variant-dense-pq": lambda: _dense_image(
        mm.laderman_variant("-1234567/7654321"),
        [[2, "1/2", 1], [1, 1, 0], ["1/3", 1, 1]],
        [[1, 2, -1], [1, 3, "-1/5"], [-1, -1, 2]],
        [[1, 1, 1], [1, 2, 2], [1, "2/7", 3]]),
}


def spec(tmp_path, name):
    """A builtin spec as it is, else the path of the CRAFTED file name."""
    if name.startswith("builtin:"):
        return name
    made = CRAFTED[name]()
    path = tmp_path / f"{name}.tensor"
    path.write_text(made if isinstance(made, str)
                    else mm.write_tensor_file(made))
    return str(path)


def test_verify_builtin(capsys):
    code, out, _ = invoke(capsys, "verify", "--tensor", "builtin:strassen")
    assert code == 0 and out.strip() == "VERIFIED n=2 terms=7"


def test_verify_failure_exit_code(capsys):
    code, out, _ = invoke(capsys, "verify", "--tensor",
                          "builtin:klein-orbit-sum")
    assert code == 1 and out.strip() == "NOT A MULTIPLICATION TENSOR"


# (CRAFTED name, exit code, stdout) of verify.
VERIFY_CASES = [
    ("laderman-less-one", 1, "NOT A MULTIPLICATION TENSOR\n"),
    ("classical-3-plus-third", 1, "NOT A MULTIPLICATION TENSOR\n"),
    ("strassen-split-thirds", 0, "VERIFIED n=2 terms=8\n"),
    ("strassen-split-uneven", 1, "NOT A MULTIPLICATION TENSOR\n"),
    ("laderman-dense", 0, "VERIFIED n=3 terms=23\n"),
    ("variant-dense-pq", 0, "VERIFIED n=3 terms=23\n"),
]


def test_verify_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "t.tensor"
    code, _, _ = invoke(capsys, "construct", "winograd", "--lambda", "5/7",
                        "--out", str(path))
    assert code == 0
    code, out, _ = invoke(capsys, "verify", "--tensor", str(path))
    assert code == 0 and "VERIFIED n=2 terms=7" in out
    for name, code, stdout in VERIFY_CASES:
        assert invoke(capsys, "verify", "--tensor", spec(tmp_path, name)) == (
            code, stdout, ""), name


def test_comments_and_crlf_change_nothing(tmp_path, capsys):
    """Comments, blank lines, leading spaces and CRLF endings change
    nothing that verify and census print."""
    plain = spec(tmp_path, "variant-3-4")
    respelled = spec(tmp_path, "variant-3-4-respelled")
    for command in ("verify", "census"):
        assert invoke(capsys, command, "--tensor", respelled) == invoke(
            capsys, command, "--tensor", plain)


def test_type_compare(tmp_path, capsys):
    path = tmp_path / "v.tensor"
    invoke(capsys, "construct", "laderman-variant", "--lambda", "1",
           "--out", str(path))
    code, out, _ = invoke(capsys, "type", "--tensor", str(path),
                          "--compare", "builtin:laderman")
    assert code == 0 and "TYPE MATCH" in out
    code, out, _ = invoke(capsys, "type", "--tensor", "builtin:strassen",
                          "--compare", "builtin:classical-2")
    assert code == 1 and "TYPE MISMATCH" in out


def test_type_compare_builtin_is_cached(monkeypatch, capsys):
    """The type of a builtin --compare tensor is computed once per
    (spec, lambda), and the output does not change."""
    import mmtensor.cli as cli
    lad, seen = mm.laderman(), []

    def counting(t):
        seen.append(t == lad)
        return mm.tensor_type(t)

    monkeypatch.setattr(cli, "tensor_type", counting)
    cli._builtin_type.cache_clear()
    argv = ["type", "--tensor", "builtin:laderman-variant",
            "--compare", "builtin:laderman"]
    first, second = invoke(capsys, *argv), invoke(capsys, *argv)
    assert first == second and first[1].endswith("TYPE MATCH\n")
    assert seen.count(True) == 1


def test_show_and_project(tmp_path, capsys):
    code, out, _ = invoke(capsys, "show", "--tensor", "builtin:classical-1")
    assert code == 0 and out.startswith("dim 1")
    path = tmp_path / "p.tensor"
    code, _, _ = invoke(capsys, "project", "--tensor", "builtin:laderman",
                        "--i", "3", "--j", "3", "--k", "3", "--out", str(path))
    assert code == 0
    t = read_tensor_file(path.read_text())
    assert t.dim == 2 and mm.is_matmul_tensor(t)
    # zero writes the lift of the projection at the same position
    code, out, _ = invoke(capsys, "zero", "--tensor", "builtin:laderman",
                          "--i", "1", "--j", "2", "--k", "3")
    lift = mm.tensor_lift(mm.tensor_project(mm.laderman(), (1, 2, 3)),
                          (1, 2, 3))
    assert code == 0 and out == mm.write_tensor_file(lift)


def test_zero(capsys):
    code, out, _ = invoke(capsys, "zero", "--tensor", "builtin:classical-2",
                          "--i", "1", "--j", "1", "--k", "1")
    assert code == 0
    t = read_tensor_file(out)
    assert t.dim == 2 and len(t.terms) == 8


def test_act_and_orbit(tmp_path, capsys):
    gpath = tmp_path / "klein.group"
    gpath.write_text(write_group_file(mm.klein_group()))
    code, out, _ = invoke(capsys, "act", "--tensor", "builtin:laderman",
                          "--iso", str(gpath))
    assert code == 0
    assert read_tensor_file(out) == mm.laderman()  # identity element
    code, out, _ = invoke(capsys, "orbit", "--tensor",
                          "builtin:lifted-winograd", "--group", str(gpath))
    assert code == 0 and len(read_tensor_file(out).terms) == 28
    code, out, _ = invoke(capsys, "orbit", "--tensor",
                          "builtin:lifted-winograd", "--group",
                          "builtin:klein")
    assert code == 0 and len(read_tensor_file(out).terms) == 28


def test_merge(tmp_path, capsys):
    code, out, err = invoke(capsys, "merge", "--tensor",
                            "builtin:klein-orbit-sum")
    assert code == 0
    assert len(read_tensor_file(out).terms) == 19
    assert "19" in err
    # The Klein orbit of lifted Winograd merges to the Klein orbit sum, at
    # lambda = -3/7 by folding negative p/q leads.
    orbit = tmp_path / "orbit.tensor"
    for lam in ("1", "-3/7"):
        assert invoke(capsys, "orbit", "--tensor", "builtin:lifted-winograd",
                      "--lambda", lam, "--group", "builtin:klein",
                      "--out", str(orbit))[0] == 0
        assert invoke(capsys, "merge", "--tensor", str(orbit)) == (
            0, invoke(capsys, "show", "--tensor", "builtin:klein-orbit-sum",
                      "--lambda", lam)[1], "merged 28 -> 19 terms\n")


_D = mm.Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
# (group, stderr, terms of R).  The 3-cycle group weighs the corner orbit
# 2 and the two orbits of permutations of (1, 2, 3) -1; the signed group
# {I, (D, D, D)} fixes the corner, so its stabilizer order is 2.
CORRECTION_CASES = [
    (mm.klein_group(), "corner coefficient 3/4 (total weight 3)\n", 7),
    (three_cycle_group(), "corner coefficient 2 (total weight 2)\n", 9),
    (mm.IsotropyGroup([mm.Isotropy.identity(3), mm.Isotropy(_D, _D, _D)]),
     "corner coefficient 1/2 (total weight 1)\n", 27),
]


def test_correction(tmp_path, capsys):
    """R is one integral monomial term per nonzero weight."""
    path = tmp_path / "g.group"
    for group, stderr, terms in CORRECTION_CASES:
        path.write_text(write_group_file(group))
        code, out, err = invoke(capsys, "correction", "--group", str(path))
        assert (code, err) == (0, stderr)
        assert "/" not in out and len(read_tensor_file(out).terms) == terms


# A closed involution group whose generator (G, G, G), G = [[1, 1], [0, -1]],
# maps monomial terms to dense ones.
_G = mm.Matrix([[1, 1], [0, -1]])
NON_MONOMIAL_GROUP = mm.IsotropyGroup([mm.Isotropy.identity(2),
                                       mm.Isotropy(_G, _G, _G)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_correction_trivial_group(tmp_path, capsys, n):
    group = tmp_path / "trivial.group"
    group.write_text(write_group_file(mm.IsotropyGroup([
        mm.Isotropy.identity(n)])))
    code, out, err = invoke(capsys, "correction", "--group", str(group))
    assert code == 0
    assert err == "corner coefficient 0 (total weight 0)\n"
    assert read_tensor_file(out).dim == n


def test_correction_refuses_non_monomial_group(tmp_path, capsys):
    group = tmp_path / "winograd.group"
    group.write_text(write_group_file(NON_MONOMIAL_GROUP))
    code, out, err = invoke(capsys, "correction", "--group", str(group))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "monomially" in err


def _group_text(elements) -> str:
    """A group file listing the elements, which need not form a group:
    the bytes write_group_file writes for a group."""
    return mm.write_tensor_file(mm.Tensor(elements[0].dim, [
        mm.RankOneTerm(*g.factors()) for g in elements]))


@pytest.mark.parametrize("command", ["orbit --tensor builtin:lifted-winograd",
                                     "correction"])
def test_group_file_must_be_closed(tmp_path, capsys, command):
    """Klein minus one element is no group: its orbit sum is no orbit
    sum, so the file is refused."""
    group = tmp_path / "partial.group"
    group.write_text(_group_text(list(mm.klein_group())[:3]))
    code, out, err = invoke(capsys, *command.split(), "--group", str(group))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "not closed" in err


_C3 = mm.Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
_E3, _R3 = mm.Isotropy.identity(3), mm.Isotropy(_C3, _C3, _C3)
# Element lists with repeats: e, e, r, r, r, r^2 for a 3-cycle r, and
# (I, I, I) with (-I, I, I), one element up to scale.
REPEATED_GROUPS = {
    "uneven-counts": [_E3, _E3, _R3, _R3, _R3, mm.compose(_R3, _R3)],
    "same-up-to-scale": [_E3, mm.Isotropy(mm.Matrix.identity(3).scale(-1),
                                          _E3.g2, _E3.g3)],
}


@pytest.mark.parametrize("command", ["orbit --tensor builtin:lifted-winograd",
                                     "correction"])
@pytest.mark.parametrize("name", REPEATED_GROUPS)
def test_group_file_refuses_repeated_elements(tmp_path, capsys, command,
                                              name):
    """A repeated element counts its images twice, so neither list is a
    group: orbit printed 42 and 14 terms, and correction printed corner
    1/2 for (I, I, I), (-I, I, I), where the trivial group's is 0."""
    group = tmp_path / "repeated.group"
    group.write_text(_group_text(REPEATED_GROUPS[name]))
    code, out, err = invoke(capsys, *command.split(), "--group", str(group))
    assert code == 2 and out == ""
    assert err == (f"error: bad group file {group}: "
                   "isotropy group is not closed\n")


# V4's five subgroups, as index sets into list(mm.klein_group()).
KLEIN_SUBGROUPS = [{0}, {0, 1}, {0, 2}, {0, 3}, {0, 1, 2, 3}]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=5))
@example([1, 2, 3])
@example([3, 2, 1])
@example([2, 3])
def test_group_check_accepts_exactly_klein_subgroups(fuzz_dir, rest):
    """Lists of Klein elements, the identity first and repeats allowed,
    are groups iff they list one of V4's subgroups once each; orbit of
    lifted Winograd then prints 7 |G| terms, and refuses the rest."""
    idx = [0, *rest]
    klein = list(mm.klein_group())
    elements = [klein[i] for i in idx]
    is_group = len(set(idx)) == len(idx) and set(idx) in KLEIN_SUBGROUPS
    path = fuzz_dir / "klein-subset.group"
    # A fresh file, not a truncated one: rewriting a file just written can
    # wait for the filesystem to flush it.
    path.unlink(missing_ok=True)
    path.write_text(_group_text(elements))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["orbit", "--tensor", "builtin:lifted-winograd",
                    "--group", str(path)])
    if is_group:
        assert len(mm.IsotropyGroup(elements)) == len(idx)
        assert code == 0
        assert len(read_tensor_file(out.getvalue()).terms) == 7 * len(idx)
    else:
        with pytest.raises(ValueError, match="not closed"):
            mm.IsotropyGroup(elements)
        assert code == 2 and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


def test_codegen(capsys):
    code, out, err = invoke(capsys, "codegen", "--tensor", "builtin:strassen")
    assert code == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("p")) == 7
    assert "multiplications 7" in err
    code, out, _ = invoke(capsys, "codegen", "--tensor", "builtin:laderman",
                          "--style", "annotated")
    assert code == 0 and "# term" in out


def test_readme_shows_what_codegen_prints(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    head = "`mmtensor codegen --tensor builtin:strassen` emits:\n\n```\n"
    assert head in readme
    block = readme.split(head, 1)[1].split("```\n", 1)[0]
    assert invoke(capsys, "codegen", "--tensor",
                  "builtin:strassen")[1] == block


def test_codegen_refuses_two_digit_indices(capsys):
    """Atoms have one digit per index, so a111 cannot name both a(1,11)
    and a(11,1): codegen stops at n = 9."""
    code, out, err = invoke(capsys, "codegen", "--tensor",
                            "builtin:classical-10")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "n <= 9" in err
    code, out, _ = invoke(capsys, "codegen", "--tensor", "builtin:classical-9")
    assert code == 0 and out.endswith(" + a99 * b99\n")


# (size, base, threshold, stdout) of mul --seed 1.  Laderman at 81 runs 4
# levels, whose 23**4 leaf products run in chunks under the batch cap;
# winograd's program with temporaries runs 6 levels past the cap.
# Laderman at 243 over 81 runs 23 packed leaves of side 81, and
# classical-1 one leaf of side 100.
MUL_CASES = [
    ("4", "builtin:strassen", "1", "size 4 multiplications 49 OK\n"),
    ("9", "builtin:laderman-variant", "1",
     "size 9 multiplications 529 OK\n"),
    ("81", "builtin:laderman", "1", "size 81 multiplications 279841 OK\n"),
    ("64", "builtin:winograd", "1", "size 64 multiplications 117649 OK\n"),
    ("243", "builtin:laderman", "81",
     "size 243 multiplications 12223143 OK\n"),
    ("100", "builtin:classical-1", "1",
     "size 100 multiplications 1000000 OK\n"),
]


def test_mul_counts(capsys):
    for size, base, threshold, stdout in MUL_CASES:
        assert invoke(capsys, "mul", "--size", size, "--seed", "1", "--base",
                      base, "--threshold", threshold) == (0, stdout, "")


# (tensor, --lambda, stabilizer count).
STABILIZER_CASES = [
    ("builtin:classical-2", "1", 512),
    ("builtin:klein-orbit-sum", "3/4", 2048),
    ("builtin:lifted-winograd", "-3/7", 4096),
    ("builtin:winograd", "2", 512),
    ("laderman-dense", "1", 110592),
]


def test_stabilizer_search(tmp_path, capsys):
    for name, lam, count in STABILIZER_CASES:
        assert invoke(capsys, "stabilizer-search", "--tensor",
                      spec(tmp_path, name), "--lambda", lam) == (
            0, f"stabilizers {count}\n", "")


# (tensor, n, exit code, {line end: how many of the n**3 lines end so}).
_LADERMAN_ENDS = {" terms 7 VERIFIED": 4, " terms 8 VERIFIED": 23}
CENSUS_CASES = [
    ("builtin:laderman", 3, 0, _LADERMAN_ENDS),
    ("builtin:strassen", 2, 0, {" terms 1 VERIFIED": 8}),
    ("builtin:classical-4", 4, 0, {" terms 27 VERIFIED": 64}),
    ("laderman-less-one", 3, 1, {" VERIFIED": 19}),
    ("classical-3-plus-third", 3, 1, {" FAILED": 2,
                                      "(2,1,2) terms 8 FAILED": 1,
                                      "(3,1,2) terms 8 FAILED": 1}),
    ("laderman-cancelled", 3, 1, {" terms 0 FAILED": 27}),
    ("laderman-doubled", 3, 0, _LADERMAN_ENDS),
    ("variant-3-4", 3, 0, {" VERIFIED": 27}),
    ("laderman-dense", 3, 0, {" VERIFIED": 27}),
]


def test_census(tmp_path, capsys):
    """census exits 1 if any projection fails, whichever it is."""
    for name, n, code, ends in CENSUS_CASES:
        got, out, err = invoke(capsys, "census", "--tensor",
                               spec(tmp_path, name))
        lines = out.splitlines()
        assert (got, err, len(lines)) == (code, "", n ** 3), name
        for end, count in ends.items():
            assert sum(ln.endswith(end) for ln in lines) == count, (name, end)


def test_census_tests_no_term_for_zero_again(capsys, monkeypatch):
    """census prints the length of each merge result as it is: it calls
    RankOneTerm.is_zero exactly as often as projection_census does."""
    t = mm.laderman()
    calls = []
    is_zero = mm.RankOneTerm.is_zero
    monkeypatch.setattr(mm.RankOneTerm, "is_zero",
                        lambda tm: calls.append(tm) or is_zero(tm))
    list(mm.projection_census(t))
    census_calls, calls[:] = len(calls), []
    assert invoke(capsys, "census", "--tensor", "builtin:laderman")[0] == 0
    assert len(calls) == census_calls > 0


def test_usage_errors(capsys):
    assert invoke(capsys, "nonesuch")[0] == 2
    assert invoke(capsys, "verify")[0] == 2
    code, _, err = invoke(capsys, "verify", "--tensor", "builtin:nonesuch")
    assert code == 2 and "unknown builtin" in err
    code, _, err = invoke(capsys, "verify", "--tensor", "builtin:classical-x")
    assert code == 2 and err == "error: unknown builtin tensor: classical-x\n"
    code, _, err = invoke(capsys, "verify", "--tensor", "/no/such/file")
    assert code == 2 and "cannot read" in err
    code, _, err = invoke(capsys, "construct", "winograd", "--lambda", "0")
    assert code == 2 and "nonzero" in err
    code, _, err = invoke(capsys, "project", "--tensor", "builtin:laderman",
                          "--i", "4", "--j", "1", "--k", "1")
    assert code == 2 and "indices" in err


@pytest.mark.parametrize("argv", [
    ["construct", "winograd"],
    ["merge", "--tensor", "builtin:strassen"],
    ["correction", "--group", "builtin:klein"],
    ["project", "--tensor", "builtin:laderman", "--i", "1", "--j", "1",
     "--k", "1"],
], ids=["construct", "merge", "correction", "project"])
@pytest.mark.parametrize("where", ["missing-dir", "directory", "file-parent"])
def test_unwritable_out(tmp_path, capsys, argv, where):
    """A file as the parent is refused even as root, unlike a read-only
    file."""
    (tmp_path / "file").write_text("")
    out = {"missing-dir": tmp_path / "no" / "x.tensor",
           "directory": tmp_path,
           "file-parent": tmp_path / "file" / "x.tensor"}[where]
    code, stdout, err = invoke(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write tensor file {out}: ")


def _construct_out(capsys, name, out):
    code, stdout, err = invoke(capsys, "construct", name, "--out", str(out))
    assert (code, stdout, err) == (0, "", "")
    return mm.write_tensor_file(mm.builtin(name, 1), 1)


def test_out_rewrites_a_longer_file_without_a_stale_tail(tmp_path, capsys):
    out = tmp_path / "out.tensor"
    longer = _construct_out(capsys, "laderman-variant", out)
    shorter = _construct_out(capsys, "winograd", out)
    assert len(shorter) < len(longer)
    assert out.read_text() == shorter


def test_out_keeps_the_inode_and_mode_of_an_existing_file(tmp_path, capsys):
    out = tmp_path / "out.tensor"
    out.write_text("x" * 10000)
    out.chmod(0o600)
    before = out.stat()
    text = _construct_out(capsys, "winograd", out)
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino,
                                                           0o600)
    assert out.read_text() == text


def test_out_follows_a_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.tensor", tmp_path / "link.tensor"
    target.write_text("x" * 10000)
    link.symlink_to(target)
    text = _construct_out(capsys, "winograd", link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == text


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no /dev/null")
def test_out_to_dev_null(capsys):
    _construct_out(capsys, "winograd", os.devnull)


def test_out_is_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    """A truncating reopen of a file written moments before waits for an
    ext4 flush; this catches a revert on hosts that do not stall."""
    flags = []

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    os_open = mm.cli.os.open
    monkeypatch.setattr(mm.cli.os, "open", recording_open)
    for _ in range(2):
        _construct_out(capsys, "winograd", tmp_path / "out.tensor")
    assert len(flags) == 2 and not any(f & os.O_TRUNC for f in flags)


def test_bad_tensor_file(tmp_path, capsys):
    path = tmp_path / "bad.tensor"
    path.write_text("dim 2\nterms 1\nterm\nbogus\n")
    code, _, err = invoke(capsys, "verify", "--tensor", str(path))
    assert code == 2 and "bad tensor file" in err


@pytest.mark.parametrize("token", ["0.5", "1e3", "1_000", "1/-2"])
def test_rationals_are_integers_or_p_over_q(tmp_path, capsys, token):
    code, _, err = invoke(capsys, "construct", "winograd", "--lambda", token)
    assert (code, err) == (
        2, f"error: malformed rational for --lambda: {token!r}\n")
    path = tmp_path / "bad.tensor"
    path.write_text(f"dim 1\nterms 1\nterm\n{token}\n1\n1\n")
    code, _, err = invoke(capsys, "verify", "--tensor", str(path))
    assert (code, err) == (2, f"error: bad tensor file {path}: line 4: "
                              f"malformed rational {token!r}\n")


def test_bad_tensor_file_counts(tmp_path, capsys):
    path = tmp_path / "bad.tensor"
    path.write_text("dim 2\nterms -1\n")
    code, _, err = invoke(capsys, "verify", "--tensor", str(path))
    assert code == 2 and "line 2" in err


_I3 = mm.Matrix.identity(3)
_SWAP12 = mm.Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
_ACT = ["act", "--tensor", "builtin:laderman", "--iso"]

# (id, file text or None for a missing file, argv before the path, message)
BAD_INPUT_FILES = [
    ("missing-group", None,
     ["orbit", "--tensor", "builtin:laderman", "--group"],
     "cannot read group file"),
    ("group-without-identity-first",
     mm.write_tensor_file(mm.Tensor(3, [mm.term(_SWAP12, _SWAP12, _I3),
                                        mm.term(_I3, _I3, _I3)])),
     ["correction", "--group"], "first group element must be the identity"),
    ("singular-iso",
     mm.write_tensor_file(mm.Tensor(3, [mm.term(_I3, _I3,
                                                mm.Matrix.unit(3, 1, 1))])),
     _ACT, "singular isotropy factor"),
    ("iso-without-elements", "dim 3\nterms 0\n", _ACT, "is empty"),
    ("blank-iso", "", _ACT, "bad isotropy file"),
]


@pytest.mark.parametrize("text, argv, message",
                         [case[1:] for case in BAD_INPUT_FILES],
                         ids=[case[0] for case in BAD_INPUT_FILES])
def test_bad_group_and_isotropy_files(tmp_path, capsys, text, argv, message):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = invoke(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_negative_lambda(tmp_path, capsys):
    path = tmp_path / "v.tensor"
    code, _, _ = invoke(capsys, "construct", "laderman-variant", "--lambda",
                        "-3/7", "--out", str(path))
    assert code == 0
    assert "lambda -3/7" in path.read_text().splitlines()
    code, out, _ = invoke(capsys, "verify", "--tensor", "builtin:winograd",
                          "--lambda", "-2/3")
    assert code == 0 and out.strip() == "VERIFIED n=2 terms=7"
    code, out, _ = invoke(capsys, "mul", "--size", "3", "--base",
                          "builtin:laderman-variant", "--lambda", "-3/7")
    assert code == 0 and out.strip().endswith("OK")


@pytest.mark.parametrize("argv", [
    ("mul", "--size", "3", "--base", "builtin:lifted-winograd"),
    ("codegen", "--tensor", "builtin:klein-orbit-sum"),
], ids=["mul", "codegen"])
def test_mul_refuses_non_multiplication_base(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "not a multiplication tensor" in err


def test_mul_size_bound(capsys):
    from mmtensor.cli import MAX_MUL_SIZE
    code, _, err = invoke(capsys, "mul", "--size", str(MAX_MUL_SIZE + 1),
                          "--base", "builtin:strassen")
    assert code == 2 and "--size" in err
    assert invoke(capsys, "mul", "--size", "0", "--base",
                  "builtin:strassen")[0] == 2


def test_mul_leaf_bound(capsys):
    """A size within the bound can still pad far past it: classical-9
    pads 82 to 729 and would take 729**3 leaf multiplications."""
    code, out, err = invoke(capsys, "mul", "--size", "82", "--base",
                            "builtin:classical-9")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "leaf multiplications" in err


def python_dash_m(*argv, **env):
    """Run python -m mmtensor argv in a subprocess, with this mmtensor on
    PYTHONPATH and env added to the environment; TimeoutExpired past 20 s."""
    src = str(Path(mm.__file__).resolve().parents[1])
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "mmtensor", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=20)


# (argv, text of {file}, exit code, the start of stdout or stderr).  The
# inputs that exit 2 once hung or exhausted memory.
DASH_M_CASES = [
    (["verify", "--tensor", "builtin:strassen"], None, 0,
     "VERIFIED n=2 terms=7\n"),
    (["--help"], None, 0, "usage: mmtensor [-h]"),
    (["construct", "winograd", "--lambda", "1e99999999"], None, 2,
     "error: malformed rational for --lambda: '1e99999999'"),
    (["verify", "--tensor", "{file}"], "dim 1\nterms 1\nterm\n1e99999999\n",
     2, "error: bad tensor file"),
    (["verify", "--tensor", "builtin:classical-100000"], None, 2,
     "error: builtin tensor classical-100000: N must lie in 1..16"),
    (["verify", "--tensor", "{file}"], "dim 100000\nterms 0\n", 2,
     "error: bad tensor file"),
    (["census", "--tensor", "{file}"], "dim 17\nterms 0\n", 2,
     "error: bad tensor file"),
]


def test_python_dash_m(tmp_path):
    path = tmp_path / "input.tensor"
    for argv, text, code, start in DASH_M_CASES:
        if text is not None:
            path.write_text(text)
        proc = python_dash_m(*(a.replace("{file}", str(path)) for a in argv))
        # Success prints on stdout alone; exit 2 prints one stderr line.
        shown, other = ((proc.stdout, proc.stderr) if code == 0
                        else (proc.stderr, proc.stdout))
        assert (proc.returncode, other) == (code, ""), argv
        assert shown.startswith(start), argv
        assert code == 0 or len(shown.splitlines()) == 1, argv


@pytest.mark.parametrize("limit", [{}, {"PYTHONINTMAXSTRDIGITS": "0"}],
                         ids=["default-digit-limit", "no-digit-limit"])
def test_rationals_have_at_most_640_digits(tmp_path, limit):
    """A tensor-file entry, a lambda line and --lambda read digit runs of
    640 digits and exit 2 with one line at 641, whatever int()'s digit
    limit is."""
    for digits, code in ((640, 0), (641, 2)):
        big = "7" * digits
        entry, lam = tmp_path / "entry.tensor", tmp_path / "lambda.tensor"
        entry.write_text(f"dim 1\nterms 1\nterm\n{big}\n1\n1\n")
        lam.write_text(f"dim 1\nlambda 1/{big}\nterms 0\n")
        for argv in (("show", "--tensor", str(entry)),
                     ("show", "--tensor", str(lam)),
                     ("construct", "winograd", "--lambda", f"-{big}")):
            proc = python_dash_m(*argv, **limit)
            assert proc.returncode == code, (digits, argv)
            if code == 2:
                assert proc.stdout == ""
                assert len(proc.stderr.splitlines()) == 1
                assert proc.stderr.startswith("error: ")


_640, _641 = "1" * 640, "1" * 641
_MUL = ["mul", "--base", "builtin:strassen"]
_PROJECT = ["project", "--tensor", "builtin:strassen", "--j", "1", "--k", "1"]
# (argv, exit code, the start of its stdout or stderr).  A "usage:" case
# ends in the flag and the value that argparse refuses.
INTEGER_ARGS = [
    (_MUL + ["--size", "x"], 2, "usage:"),
    (_MUL + ["--size", "1_0"], 2, "usage:"),
    (_MUL + ["--size", "\u0663"], 2, "usage:"),
    (_MUL + ["--size", "1", "--seed", _641], 2, "usage:"),
    (_MUL + ["--size", "1", "--threshold", _641], 2, "usage:"),
    (_PROJECT + ["--i", _641], 2, "usage:"),
    (_PROJECT + ["--i", "1", "--j", "x"], 2, "usage:"),
    (_PROJECT + ["--i", "1", "--k", "x"], 2, "usage:"),
    (["verify", "--tensor", f"builtin:classical-{_641}"], 2,
     "error: unknown builtin tensor"),
    (_MUL + ["--size", "1", "--seed", _640, "--threshold", _640], 0,
     "size 1 multiplications 1 OK"),
    (_MUL + ["--size=+2", "--seed=-5", "--threshold=+1"], 0,
     "size 2 multiplications 7 OK"),
    (_MUL + ["--size", _640], 2, "error: --size must lie in 1..243"),
    (_PROJECT + ["--i=-1"], 2, "error: indices must lie in 1..2"),
    (["verify", "--tensor", f"builtin:classical-{'0' * 639}2"], 0,
     "VERIFIED n=2 terms=8"),
]


@pytest.mark.parametrize("limit", [{}, {"PYTHONINTMAXSTRDIGITS": "0"}],
                         ids=["default-digit-limit", "no-digit-limit"])
def test_integer_arguments_have_one_grammar(limit):
    """--size, --seed, --threshold, --i, --j, --k and the N of classical-N
    are read like the counts of a tensor file: a sign and at most 640 ASCII
    digits, whatever int()'s digit limit is."""
    for argv, code, start in INTEGER_ARGS:
        proc = python_dash_m(*argv, **limit)
        assert proc.returncode == code, argv
        assert (proc.stdout or proc.stderr).startswith(start), argv
        if code == 2:
            assert proc.stdout == ""
            assert start == "usage:" or len(proc.stderr.splitlines()) == 1
        if start == "usage:":
            flag, value = argv[-2:]
            assert proc.stderr.splitlines()[-1].endswith(
                f"argument {flag}: invalid int value: {value!r}"), argv


def test_type_compare_against_file(tmp_path, capsys):
    lad, strassen = tmp_path / "laderman.tensor", tmp_path / "strassen.tensor"
    lad.write_text(mm.write_tensor_file(mm.laderman()))
    strassen.write_text(mm.write_tensor_file(mm.strassen()))
    code, out, _ = invoke(capsys, "type", "--tensor", "builtin:laderman",
                          "--compare", str(lad))
    assert code == 0 and out.endswith("\nTYPE MATCH\n")
    code, out, _ = invoke(capsys, "type", "--tensor", "builtin:laderman",
                          "--compare", str(strassen))
    assert code == 1 and out.endswith("\nTYPE MISMATCH\n")
    missing = tmp_path / "missing.tensor"
    code, out, err = invoke(capsys, "type", "--tensor", "builtin:laderman",
                            "--compare", str(missing))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read tensor file {missing}: ")


GOLDEN = Path(__file__).parent / "golden"
# Exit code, stdout, stderr (and the --out file, where written) of each argv.
TRANSCRIPT = json.loads((GOLDEN / "cli_transcript.json").read_text())


def invoke_case(capsys, tmp_path, argv):
    out = tmp_path / "out.tensor"
    code, stdout, err = invoke(capsys, *(
        a.replace("{golden}", str(GOLDEN)).replace("{out}", str(out))
        for a in argv))
    return code, stdout, err, out


@pytest.mark.parametrize("case", TRANSCRIPT, ids=[c["id"] for c in TRANSCRIPT])
def test_golden_transcript(tmp_path, capsys, case):
    code, stdout, err, out = invoke_case(capsys, tmp_path, case["argv"])
    assert (code, stdout, err) == (case["code"], case["stdout"],
                                   case["stderr"])
    if "out" in case:
        assert out.read_text() == case["out"]


def test_parser_keeps_no_state(tmp_path, capsys):
    golden = {c["id"]: c for c in TRANSCRIPT}
    for first, second in [("type-mismatch", "type"),
                          ("codegen-annotated", "codegen")]:
        invoke_case(capsys, tmp_path, golden[first]["argv"])
        code, stdout, err, _ = invoke_case(capsys, tmp_path,
                                           golden[second]["argv"])
        assert (code, stdout, err) == (golden[second]["code"],
                                       golden[second]["stdout"],
                                       golden[second]["stderr"])
    assert len(golden["type"]["stdout"].splitlines()) == 1


# Every subcommand, on the files {tensor}, {iso} and {group}.
FUZZ_COMMANDS = [
    "show --tensor {tensor}",
    "verify --tensor {tensor}",
    "type --tensor {tensor} --compare {other}",
    "project --tensor {tensor} --i {i} --j {j} --k {k}",
    "zero --tensor {tensor} --i {i} --j {j} --k {k}",
    "act --tensor {tensor} --iso {iso}",
    "orbit --tensor {tensor} --group {group}",
    "merge --tensor {tensor}",
    "construct {name} --lambda {lam}",
    "correction --group {group}",
    "codegen --tensor {tensor}",
    "mul --size {size} --base {tensor} --lambda {lam}",
    "stabilizer-search --tensor {tensor}",
    "census --tensor {tensor}",
]
FUZZ_SEEDS = {
    "tensor": [mm.write_tensor_file(mm.strassen()),
               mm.write_tensor_file(mm.lifted_winograd(), lam=2)],
    "iso": [mm.write_tensor_file(mm.Tensor(2, [
        mm.RankOneTerm(*mm.winograd_isotropy().factors())]))],
    "group": [write_group_file(mm.klein_group()),
              write_group_file(NON_MONOMIAL_GROUP),
              write_group_file(mm.IsotropyGroup([mm.Isotropy.identity(1)]))],
}
FUZZ_TOKENS = ["0", "1", "-1", "2", "3", "1/2", "-3/4", "1/0", "x", "",
               "term", "terms 0", "dim 3", "lambda 1/2", "#", "17", "1e9"]


@st.composite
def _mutated(draw, kind):
    """A seed file of the kind with up to three lines dropped, copied,
    inserted or given a new token."""
    lines = draw(st.sampled_from(FUZZ_SEEDS[kind])).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "copy", "token", "line"]))
        if i == len(lines) or op == "line":
            lines.insert(i, draw(st.sampled_from(FUZZ_TOKENS)))
        elif op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(
                st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS),
       st.fixed_dictionaries({kind: _mutated(kind) for kind in FUZZ_SEEDS}),
       st.fixed_dictionaries({
           "i": st.integers(0, 3), "j": st.integers(0, 3),
           "k": st.integers(0, 3), "size": st.integers(0, 6),
           "lam": st.sampled_from(["1", "-3/7", "2/4", "0", "1/0", "x"]),
           "name": st.sampled_from(["winograd", "laderman-variant"]),
           "other": st.sampled_from(["{tensor}", "builtin:laderman",
                                     "builtin:nonesuch"])}))
def test_run_closed_error_surface(fuzz_dir, command, files, values):
    """Every subcommand on mutated files exits 0, 1 or 2 and raises
    nothing."""
    for kind, text in files.items():
        path = fuzz_dir / f"{kind}.txt"
        path.unlink(missing_ok=True)  # a fresh file; see the Klein test
        path.write_text(text)
        values[kind] = str(path)
    values["other"] = values["other"].format(**values)
    argv = command.format(**values).split()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)
