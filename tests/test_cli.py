import json
import re
import shlex
from pathlib import Path

import pytest

from multifam import (
    Family, KSet, acceptance, graphs, hit_s, hit_s_set, hm_multiset, load_family, star,
)
from multifam.cli import main
from multifam.families import FAMILY_NAMES
from multifam.family_io import save_family
from multifam.verify import THEOREM_IDS

from conftest import refuse_enumeration


def run(*argv):
    return main(list(argv))


# the flag beyond --m and --k each theorem reads, none for the others
THEOREM_FLAG = {"T2.3": "--s", "T3.4": "--s", "T4.1": "--t", "T4.8": "--t"}

# valid values of the flags beyond --m and --k each named family reads
FAMILY_FLAGS = {
    "star": ("--anchor", "1"),
    "fixed_multiset": ("--anchor", "1,1"),
    "frankl_set": ("--t", "1", "--r", "0"),
    "frankl_multiset": ("--t", "1", "--r", "0"),
    "hm_set": (),
    "hm_multiset": (),
    "hm_t_set": ("--t", "2"),
    "hm_t_multiset": ("--t", "2"),
    "hit_s": ("--s", "2"),
    "hajnal_rothschild": ("--t", "1", "--s", "2"),
}


def test_construct_then_size(tmp_path, capsys):
    out = tmp_path / "star.txt"
    assert run("construct", "--family", "star", "--m", "4", "--k", "3", "--anchor", "1", "-o", str(out)) == 0
    assert load_family(out) == star(4, 3, 1)
    assert run("size", "--family", "star", "--m", "4", "--k", "3", "--anchor", "1") == 0
    captured = capsys.readouterr()
    assert "closed_form" in captured.out and "10" in captured.out


def test_size_table_is_byte_identical_between_runs(capsys):
    assert run("size", "--family", "hm_multiset", "--m", "6", "--k", "3") == 0
    first = capsys.readouterr().out
    assert run("size", "--family", "hm_multiset", "--m", "6", "--k", "3") == 0
    second = capsys.readouterr().out
    assert first == second
    assert "16" in first


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--family", "hm_set", "--m", "1", "--k", "2"), "need n >= k+1, got n=1, k=2"),
        (("--family", "hm_multiset", "--m", "2", "--k", "2"), "need m >= k+1, got m=2, k=2"),
        (("--family", "star", "--m", "3", "--k", "0"), "k must be >= 1, got 0"),
        (("--family", "fixed_multiset", "--m", "3", "--k", "1", "--anchor", "1,1"),
         "anchor cardinality 2 exceeds k=1"),
        (("--family", "hit_s", "--m", "3", "--k", "-1", "--s", "1"), "k must be >= 0, got -1"),
        (("--family", "hm_t_set", "--m", "-1", "--k", "-1", "--t", "2"),
         "need 1 < t < k, got t=2, k=-1"),
        (("--family", "hm_t_multiset", "--m", "3", "--k", "3", "--t", "2"),
         "need m >= k+1, got m=3, k=3"),
    ],
)
def test_size_reports_the_constructor_check(argv, message, capsys):
    # the closed forms used to run first and leak binomial's own message
    assert run("size", *argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "binomial requires" not in err and "multichoose requires" not in err


@pytest.mark.parametrize("command", ["size", "construct"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("hit_s", "--m", "0", "--k", "2", "--s", "0"), "m must be >= 1, got 0"),
        (("hit_s", "--m", "4", "--k", "2", "--s", "-1"), "anchor size -1 outside [0, 4]"),
        (("hit_s", "--m", "5", "--k", "-1", "--s", "1"), "k must be >= 0, got -1"),
        (("hajnal_rothschild", "--m", "4", "--k", "2", "--t", "1", "--s", "0"),
         "need t >= 1 and s >= 1, got (1, 0)"),
        (("hajnal_rothschild", "--m", "4", "--k", "0", "--t", "1", "--s", "1"),
         "need t <= k, got t=1, k=0"),
        (("hajnal_rothschild", "--m", "4", "--k", "2", "--t", "1", "--s", "5"),
         "need s*t <= n, got s*t=5, n=4"),
    ],
)
def test_construct_runs_the_check_size_runs(command, argv, message, tmp_path, capsys):
    out = tmp_path / "family.txt"
    extra = ("-o", str(out)) if command == "construct" else ()
    assert run(command, "--family", *argv, *extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_hit_s_anchor_is_a_set(tmp_path, capsys):
    # a repeated anchor element counts once, in the closed form as in the family
    out = tmp_path / "hit.txt"
    assert run("size", "--family", "hit_s", "--m", "4", "--k", "2", "--anchor", "1,1") == 0
    assert re.search(r"closed_form\s+4\b", capsys.readouterr().out)
    assert run("construct", "--family", "hit_s", "--m", "4", "--k", "2", "--anchor", "1,1", "-o", str(out)) == 0
    assert load_family(out) == hit_s(4, 2, (1,))


def test_size_enumerates_hajnal_rothschild_for_every_t(capsys):
    assert run("size", "--family", "hajnal_rothschild", "--m", "10", "--k", "4", "--t", "2",
               "--s", "2") == 0
    out = capsys.readouterr().out
    assert re.search(r"^closed_form +55$", out, re.M)
    assert re.search(r"^enumerated +55$", out, re.M)


@pytest.mark.parametrize("command", ["size", "construct"])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_a_family_flag_the_family_does_not_read_is_refused(command, family, tmp_path, monkeypatch,
                                                            capsys):
    # the flag used to be printed and then ignored; it is refused before any walk
    reads = FAMILY_FLAGS[family][::2]
    unread = next(flag for flag in ("--r", "--t", "--s") if flag not in reads)
    out = tmp_path / "family.txt"
    extra = ("-o", str(out)) if command == "construct" else ()
    refuse_enumeration(monkeypatch)
    argv = ("--family", family, "--m", "6", "--k", "3", *FAMILY_FLAGS[family], unread, "2")
    assert run(command, *argv, *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{family} does not read {unread}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("star", "--anchor", "1,2"), "star reads one --anchor element, got 2"),
    (("hit_s", "--anchor", "1", "--s", "2"), "hit_s reads --anchor or --s, not both"),
    (("hm_set", "--anchor", "1"), "hm_set does not read --anchor: it reads only --m and --k"),
])
def test_size_refuses_an_anchor_the_family_cannot_take(argv, message, capsys):
    # star used to count the star of the first element and print anchor=1,2
    assert run("size", "--family", argv[0], "--m", "5", "--k", "2", *argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_verify_refuses_a_flag_its_theorem_does_not_read(capsys):
    assert run("verify", "--theorem", "T1.1", "--m", "5", "--k", "2", "--t", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "T1.1 does not read 't'" in captured.err


def test_size_rejects_a_non_integer_anchor(capsys):
    assert run("size", "--family", "hit_s", "--m", "4", "--k", "2", "--anchor", "1,x") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "anchor must be a list of integers, got '1,x'" in captured.err


def test_map_roundtrip(tmp_path):
    multis = tmp_path / "multis.txt"
    sets = tmp_path / "sets.txt"
    back = tmp_path / "back.txt"
    save_family(hm_multiset(5, 3), multis)
    assert run("map", "--direction", "inverse", "-i", str(multis), "-o", str(sets)) == 0
    mapped = load_family(sets)
    assert mapped.kind == "set" and mapped.m == 7
    assert run("map", "--direction", "forward", "-i", str(sets), "-o", str(back)) == 0
    assert load_family(back) == hm_multiset(5, 3)


def test_map_rejects_wrong_kind(tmp_path, capsys):
    multis = tmp_path / "multis.txt"
    save_family(star(4, 2, 1), multis)
    assert run("map", "--direction", "forward", "-i", str(multis), "-o", str(tmp_path / "x.txt")) == 2


@pytest.mark.parametrize("argv, message", [
    (("map", "--direction", "inverse"), "inverse mapping expects a kind=multiset family file"),
    (("compress", "-t", "1"), "compression expects a kind=multiset family file"),
], ids=["map-inverse", "compress"])
def test_multiset_commands_reject_a_set_file(argv, message, tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    out = tmp_path / "x.txt"
    save_family(hit_s_set(4, 2, (1,)), sets)
    assert run(*argv, "-i", str(sets), "-o", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_map_forward_rejects_a_ground_below_k(tmp_path, capsys):
    # n = 2 < k = 3 leaves m = n-k+1 = 0 for the multiset side
    sets = tmp_path / "sets.txt"
    sets.write_text("m=2 k=3 kind=set\n")
    out = tmp_path / "x.txt"
    assert run("map", "--direction", "forward", "-i", str(sets), "-o", str(out)) == 2
    assert "n=2 is too small for k=3: need n >= k" in capsys.readouterr().err
    assert not out.exists()


def test_compress_with_trace(tmp_path):
    fam_file = tmp_path / "family.txt"
    out_file = tmp_path / "compressed.txt"
    trace_file = tmp_path / "trace.jsonl"
    fam_text = "m=6 k=3 kind=multiset\n1 1 2\n1 1 3\n1 2 3\n"
    fam_file.write_text(fam_text)
    assert run(
        "compress", "-i", str(fam_file), "-t", "2", "-o", str(out_file),
        "--trace", str(trace_file),
    ) == 0
    compressed = load_family(out_file)
    assert len(compressed) == 3
    for line in trace_file.read_text().splitlines():
        record = json.loads(line)
        assert {"pass", "i", "s", "j", "member_before", "member_after"} == set(record)


# five shifts move members over two passes; the records and the output
# were produced by the pair-loop implementation before the unary-mask rewrite
MOVING_FIXTURE = "m=6 k=3 kind=multiset\n1 1 1\n1 1 3\n1 1 5\n1 1 6\n"
MOVING_TRACE = (
    '{"i": 1, "j": 2, "member_after": "1 2 6", "member_before": "1 1 6", "pass": 1, "s": 2}\n'
    '{"i": 1, "j": 2, "member_after": "1 2 5", "member_before": "1 1 5", "pass": 1, "s": 2}\n'
    '{"i": 1, "j": 2, "member_after": "1 2 3", "member_before": "1 1 3", "pass": 1, "s": 2}\n'
    '{"i": 1, "j": 2, "member_after": "1 2 2", "member_before": "1 1 1", "pass": 1, "s": 2}\n'
    '{"i": 2, "j": 4, "member_after": "1 2 4", "member_before": "1 2 2", "pass": 2, "s": 2}\n'
)


def test_compress_trace_is_byte_identical_to_reference(tmp_path):
    fam_file = tmp_path / "family.txt"
    out_file = tmp_path / "compressed.txt"
    trace_file = tmp_path / "trace.jsonl"
    fam_file.write_text(MOVING_FIXTURE)
    assert run(
        "compress", "-i", str(fam_file), "-t", "2", "-o", str(out_file),
        "--trace", str(trace_file),
    ) == 0
    assert trace_file.read_bytes() == MOVING_TRACE.encode()
    assert out_file.read_text() == "m=6 k=3 kind=multiset\n1 2 6\n1 2 5\n1 2 4\n1 2 3\n"


@pytest.mark.parametrize("members", ["", "1 1 1 2\n"], ids=["empty", "one-member"])
def test_compress_huge_t_finishes(tmp_path, members):
    # a family of at most one member t-intersects vacuously for every t;
    # passes that cannot move anything are counted, not run
    fam_file = tmp_path / "family.txt"
    fam_file.write_text("m=6 k=4 kind=multiset\n" + members)
    small, big = tmp_path / "t3.txt", tmp_path / "big.txt"
    assert run("compress", "-i", str(fam_file), "-t", "3", "-o", str(small)) == 0
    assert run("compress", "-i", str(fam_file), "-t", "1000000000", "-o", str(big)) == 0
    assert big.read_text() == small.read_text()


def test_compress_unusable_paths_exit_2(tmp_path, capsys):
    fam_file = tmp_path / "family.txt"
    fam_file.write_text(MOVING_FIXTURE)
    assert run("compress", "-i", str(fam_file), "-t", "2", "-o", f"{tmp_path}/") == 2
    assert "Is a directory" in capsys.readouterr().err
    assert run("compress", "-i", str(tmp_path), "-t", "2", "-o", str(tmp_path / "o.txt")) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_compress_unusable_trace_path_writes_no_output(tmp_path, capsys):
    fam_file = tmp_path / "family.txt"
    fam_file.write_text(MOVING_FIXTURE)
    out_file = tmp_path / "out.txt"
    assert run(
        "compress", "-i", str(fam_file), "-t", "2", "-o", str(out_file),
        "--trace", f"{tmp_path}/",
    ) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert not out_file.exists()


def test_compress_non_utf8_input_exit_2(tmp_path, capsys):
    fam_file = tmp_path / "family.txt"
    fam_file.write_bytes(b"m=6 k=3 kind=multiset\n1 1 1\n1 1 \xff\n")
    assert run("compress", "-i", str(fam_file), "-t", "2", "-o", str(tmp_path / "o.txt")) == 2
    assert "line 3: not UTF-8" in capsys.readouterr().err


def test_compress_refuses_out_of_regime(tmp_path, capsys):
    fam_file = tmp_path / "family.txt"
    fam_file.write_text("m=5 k=4 kind=multiset\n1 1 2 3\n1 1 2 4\n")
    code = run("compress", "-i", str(fam_file), "-t", "2", "-o", str(tmp_path / "o.txt"))
    assert code == 2
    err = capsys.readouterr().err
    assert "2k-t" in err
    # the CLI has no opt-in, so the message must not tell its user to pass one
    assert "pass allow_out_of_regime" not in err


def test_search_with_json_and_witness(tmp_path, capsys):
    report = tmp_path / "report.json"
    witness = tmp_path / "witness.txt"
    code = run(
        "search", "--kind", "M", "--m", "4", "--k", "3",
        "--json", str(report), "--witness", str(witness),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["optimum"] == 10
    assert payload["status"] == "proved_optimal"
    assert len(load_family(witness)) == 10
    assert "optimum" in capsys.readouterr().out


SEARCH_ARGV = ("search", "--m", "4", "--k", "2", "--constraint", "empty-common")
VERIFY_ARGV = ("verify", "--theorem", "T1.4", "--m", "4", "--k", "3")


@pytest.mark.parametrize("argv, flag", [
    (SEARCH_ARGV, "--witness"), (SEARCH_ARGV, "--json"), (VERIFY_ARGV, "--json"),
    (("suite", "--profile", "quick"), "--json"),
])
def test_unusable_output_path_leaves_stdout_empty(argv, flag, tmp_path, capsys):
    assert run(*argv, flag, str(tmp_path / "nodir" / "out.txt")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err


def test_unusable_witness_path_writes_no_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(
        *SEARCH_ARGV, "--json", str(report), "--witness", str(tmp_path / "nodir" / "w.txt")
    ) == 2
    assert capsys.readouterr().out == ""
    assert not report.exists()


def test_search_constraints(capsys):
    assert run("search", "--m", "5", "--k", "2", "--constraint", "bipartite") == 0
    assert "9" in capsys.readouterr().out
    assert run("search", "--m", "4", "--k", "3", "--constraint", "empty-common") == 0
    assert "10" in capsys.readouterr().out
    assert run("search", "--kind", "M_t", "--m", "5", "--k", "3", "--t", "2",
               "--constraint", "nontrivial-t") == 0
    assert "4" in capsys.readouterr().out


@pytest.mark.parametrize("argv, label", [
    (("--kind", "K", "--m", "5", "--k", "2"), "K(5,2)"),
    (("--kind", "M", "--m", "4", "--k", "2"), "M(4,2)"),
    (("--kind", "K_t", "--m", "6", "--k", "3", "--t", "2"), "K(6,3,2)"),
    (("--kind", "M_t", "--m", "4", "--k", "3", "--t", "2"), "M(4,3,2)"),
    (("--kind", "M_support_t", "--m", "4", "--k", "3", "--t", "2"), "M'(4,3,2)"),
    (("--kind", "K", "--m", "5", "--k", "2", "--constraint", "bipartite"), "K(5,2)+bipartite"),
    (("--kind", "M", "--m", "4", "--k", "2", "--constraint", "clique-free", "--s", "2"),
     "M(4,2)+P(2,1)"),
    (("--m", "4", "--k", "2", "--constraint", "empty-common"), "M(4,2)+empty-common"),
    (("--m", "4", "--k", "3", "--t", "2", "--constraint", "nontrivial-t"), "M(4,3,2)+nontrivial"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_search_prints_the_graph_label(argv, label, capsys):
    assert run("search", *argv) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["graph", label]


@pytest.mark.parametrize("kind, argv, label", [
    ("M", ("--m", "4", "--k", "2", "--constraint", "empty-common"), "M*(4,2)+empty-common"),
    ("M_t", ("--m", "4", "--k", "3", "--t", "2", "--constraint", "nontrivial-t"),
     "M*(4,3,2)+nontrivial"),
])
def test_constrained_search_labels_read_the_kind_table(kind, argv, label, monkeypatch, capsys):
    # the small-core searches print their graph's label, the kind's own
    # format: a change in the table reaches them too
    entry = graphs._KINDS[kind]
    monkeypatch.setitem(graphs._KINDS, kind, entry._replace(label=entry.label.replace("M(", "M*(")))
    assert run("search", *argv) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["graph", label]


@pytest.mark.parametrize("argv", [
    ("--kind", "K", "--m", "5", "--k", "2", "--constraint", "empty-common"),
    ("--kind", "K_t", "--m", "6", "--k", "3", "--t", "2", "--constraint", "nontrivial-t"),
    ("--kind", "M_support_t", "--m", "5", "--k", "3", "--t", "2", "--constraint", "nontrivial-t"),
], ids=lambda argv: f"{argv[1]}-{argv[-1]}")
def test_small_core_search_refuses_another_kind(argv, capsys):
    # the small-core searches run on k-multisets only: answering on M or M_t
    # for another kind would answer a different question
    assert run("search", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--constraint {argv[-1]} searches k-multisets" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("--kind", "M_t", "--m", "5", "--k", "3", "--t", "2", "--constraint", "empty-common"),
     "--constraint empty-common is the t = 1 search, got --t 2"),
    (("--m", "4", "--k", "3", "--t", "2", "--constraint", "empty-common"),
     "--constraint empty-common is the t = 1 search, got --t 2"),
    (("--m", "5", "--k", "2", "--s", "2", "--constraint", "bipartite"),
     "--s is read by --constraint clique-free only"),
    (("--m", "5", "--k", "2", "--s", "2"), "--s is read by --constraint clique-free only"),
    (("--m", "5", "--k", "3", "--t", "2", "--s", "2", "--constraint", "nontrivial-t"),
     "--s is read by --constraint clique-free only"),
], ids=["M_t-t2-empty-common", "M-t2-empty-common", "s-bipartite", "s-independent-set",
        "s-nontrivial-t"])
def test_search_refuses_a_flag_its_search_does_not_read(argv, message, capsys):
    # answering without the flag would answer another question: empty-common
    # at t = 1, or a search with no s at all
    assert run("search", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (("--kind", "M_t", "--m", "5", "--k", "3", "--constraint", "nontrivial-t"),
     "--constraint nontrivial-t requires --t"),
    (("--m", "5", "--k", "2", "--constraint", "clique-free"),
     "--constraint clique-free requires --s"),
], ids=["nontrivial-t", "clique-free"])
def test_search_requires_the_flag_its_constraint_reads(argv, message, capsys):
    assert run("search", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_witness_with_the_empty_member_is_refused(tmp_path, capsys):
    # the k = 0 witness holds the empty member, which a family file cannot
    # hold: its line would be blank and read back as no member at all
    witness = tmp_path / "w.txt"
    assert run("search", "--kind", "M", "--m", "3", "--k", "0", "--witness", str(witness)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot hold the empty member" in captured.err
    assert not witness.exists()


def test_empty_common_takes_m_t_at_t_one(capsys):
    assert run("search", "--kind", "M_t", "--m", "5", "--k", "3", "--t", "1",
               "--constraint", "empty-common") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["graph", "M(5,3)+empty-common"]
    assert re.search(r"optimum\s+13\n", out)


def test_clique_free_search_deeper_than_the_recursion_limit(capsys):
    assert run("search", "--kind", "K", "--m", "1200", "--k", "1", "--constraint", "clique-free",
               "--s", "1100", "--node-limit", "100") == 0
    assert re.search(r"optimum\s+1100\n", capsys.readouterr().out)


README_SEARCH_LINES = [
    shlex.split(line, comments=True)[1:]
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    if line.startswith("multifam search ")
]


def test_readme_lists_search_examples():
    assert len(README_SEARCH_LINES) >= 8


@pytest.mark.parametrize("argv", README_SEARCH_LINES, ids=shlex.join)
def test_readme_search_examples_run(argv, capsys):
    assert run(*argv) == 0
    assert "proved_optimal" in capsys.readouterr().out


def test_search_node_limit_exit_code():
    assert run("search", "--m", "5", "--k", "3", "--node-limit", "1") == 3


def test_deep_search_node_limit_exit_code():
    # M(11,5) has 3003 vertices and an optimum of 1001 members
    assert run("search", "--kind", "M", "--m", "11", "--k", "5", "--node-limit", "1000") == 3


def test_node_limit_below_one_exit_2(capsys):
    for limit in ("0", "-1"):
        assert run("search", "--m", "4", "--k", "2", "--node-limit", limit) == 2
        assert run("verify", "--theorem", "T1.4", "--m", "4", "--k", "2", "--node-limit", limit) == 2
    assert "node limit must be at least 1" in capsys.readouterr().err


def test_search_rejects_t_zero(capsys):
    assert run("search", "--kind", "M_t", "--m", "4", "--k", "2", "--t", "0") == 2
    assert "t must be >= 1" in capsys.readouterr().err


def test_verify_t48_rejects_t_outside_one_to_k(capsys):
    assert run("verify", "--theorem", "T4.8", "--m", "2", "--k", "2", "--t", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 <= t <= k, got t=0, k=2" in captured.err
    assert "r >= 0" not in captured.err


def test_verify_cli(tmp_path, capsys):
    report = tmp_path / "t14.json"
    code = run("verify", "--theorem", "T1.4", "--m", "4", "--k", "3", "--json", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert "analytic_bound" in out and "10" in out
    payload = json.loads(report.read_text())
    assert payload["status"] == "ok" and payload["match"] is True


@pytest.mark.parametrize("theorem", THEOREM_IDS)
@pytest.mark.parametrize("m", ["0", "1"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_verify_tiny_parameters_get_a_parameter_message(theorem, m, k, capsys):
    # a closed form evaluated outside its range would leak its own message
    flag = THEOREM_FLAG.get(theorem)
    for extra in ((), *((flag, value) for value in ("1", "2") if flag)):
        assert run("verify", "--theorem", theorem, "--m", m, "--k", k, *extra) in (0, 2)
        err = capsys.readouterr().err
        assert "binomial requires" not in err and "multichoose requires" not in err
        assert "outside [" not in err


def test_verify_on_a_wide_ground_set(tmp_path):
    # 1,200 vertices, inside the vertex cap; the recursive enumeration
    # used to end in a RecursionError here, and canonical_form branched on
    # the 1,199 elements outside the optimum one at a time
    report = tmp_path / "wide.json"
    argv = ("--theorem", "T1.4", "--m", "1200", "--k", "1", "--uniqueness", "--json", str(report))
    assert run("verify", *argv) == 0
    payload = json.loads(report.read_text())
    assert payload["status"] == "ok"
    assert payload["uniqueness_verdict"] == "unique_up_to_iso"


def test_verify_hypothesis_not_met_exits_zero():
    assert run("verify", "--theorem", "T3.4", "--m", "3", "--k", "2", "--s", "2") == 0


def test_verify_uniqueness_flag(tmp_path, capsys):
    report = tmp_path / "u.json"
    code = run(
        "verify", "--theorem", "T1.4", "--m", "5", "--k", "3",
        "--uniqueness", "--json", str(report),
    )
    assert code == 0
    assert "unique_up_to_iso" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["uniqueness_verdict"] == "unique_up_to_iso"
    assert payload["optimum_class_count"] == 1


def test_isomorphic_exit_codes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    save_family(star(4, 3, 1), a)
    save_family(star(4, 3, 2), b)
    from multifam import frankl_multiset

    save_family(frankl_multiset(4, 3, 1, 1), c)
    assert run("isomorphic", str(a), str(b)) == 0
    assert run("isomorphic", str(a), str(c)) == 1


def test_isomorphic_above_nine_elements(tmp_path):
    # 2-sets of [10] as graphs: a 10-cycle, a relabelled 10-cycle and two
    # 5-cycles; all are 2-regular, so only the canonical forms tell them apart
    def cycles(*loops):
        edges = []
        for loop in map(tuple, loops):
            edges += [KSet.from_elements(10, (x, y)) for x, y in zip(loop, loop[1:] + loop[:1])]
        return Family.of_sets(10, 2, edges)

    paths = {
        "a.txt": cycles(range(1, 11)),
        "b.txt": cycles((3, 7, 1, 10, 2, 9, 5, 4, 8, 6)),
        "c.txt": cycles(range(1, 6), range(6, 11)),
    }
    for name, fam in paths.items():
        save_family(fam, tmp_path / name)
    assert run("isomorphic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")) == 0
    assert run("isomorphic", str(tmp_path / "a.txt"), str(tmp_path / "c.txt")) == 1
    assert run("isomorphic", str(tmp_path / "b.txt"), str(tmp_path / "c.txt")) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("m=3 k=2 kind=multiset\n1 2\n1 2\n")
    assert run("isomorphic", str(bad), str(bad)) == 2
    assert "line 3" in capsys.readouterr().err


def test_header_with_an_empty_ground_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# no ground set\nm=0 k=1 kind=set\n")
    assert run("isomorphic", str(bad), str(bad)) == 2
    assert "line 2: ground size must be >= 1, got 0" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert run("isomorphic", str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt")) == 2


def test_usage_error_exit_code(capsys):
    assert run("construct", "--family", "star") == 2
    capsys.readouterr()


def test_scale_guard_exit_code(capsys):
    assert run("search", "--kind", "M", "--m", "30", "--k", "10") == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", THEOREM_IDS)
@pytest.mark.parametrize("m, k", [(60, 30), (40, 20), (20, 9)])
def test_verify_refuses_an_oversized_universe_before_enumerating(theorem, m, k, monkeypatch, capsys):
    # every binding builds its graph before its construction, so the
    # graph's cap of 5,000 refuses even the 167,960 9-sets of [20], which
    # the construction's cap of 200,000 would walk
    refuse_enumeration(monkeypatch)
    flag = THEOREM_FLAG.get(theorem)
    extra = (flag, "2") if flag else ()
    assert run("verify", "--theorem", theorem, "--m", str(m), "--k", str(k), *extra) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeding the cap" in captured.err


def test_construct_refuses_an_oversized_universe_before_enumerating(tmp_path, monkeypatch, capsys):
    # every constructor walks its universe through the capped row walk;
    # `size` then prints the closed form only
    refuse_enumeration(monkeypatch)
    assert set(FAMILY_FLAGS) == set(FAMILY_NAMES)
    for family in FAMILY_NAMES:
        argv = ("--family", family, "--m", "40", "--k", "20", *FAMILY_FLAGS[family])
        out = tmp_path / f"{family}.txt"
        assert run("construct", *argv, "-o", str(out)) == 3, family
        assert not out.exists()
        assert "exceeding the cap of 200000" in capsys.readouterr().err
        assert run("size", *argv) == 0, family
        assert capsys.readouterr().out.splitlines()[-1].split() == ["enumerated", "-"]
    # a set family's universe is its C(n, k) k-sets: 31,824 here, against
    # 346,104 18-multisets of size 7
    out = tmp_path / "sets.txt"
    argv = ("--family", "frankl_set", "--m", "18", "--k", "7", "--t", "1", "--r", "0")
    monkeypatch.undo()
    assert run("construct", *argv, "-o", str(out)) == 0
    assert len(load_family(out)) == 12376


def test_suite_quick_profile(capsys):
    assert run("suite", "--profile", "quick") == 0
    out = capsys.readouterr().out
    for cid in ("AC-1", "AC-2", "AC-3", "AC-4", "AC-5", "AC-6"):
        assert f"{cid:<6} pass" in out
    assert "6/6 criteria passed" in out


def test_suite_reports_a_failed_criterion(monkeypatch, capsys):
    def fail():
        raise acceptance.CriterionFailure("the optimum moved")

    monkeypatch.setattr(acceptance, "CRITERIA", {
        cid: ((fail if cid == "AC-2" else lambda: "held"), "") for cid in acceptance.QUICK_PROFILE
    })
    assert run("suite", "--profile", "quick") == 1
    out = capsys.readouterr().out
    assert "AC-1   pass  held\n" in out
    assert "AC-2   FAIL  the optimum moved\n" in out
    assert out.endswith("5/6 criteria passed\n")


def test_suite_json_report(tmp_path, capsys):
    assert run("suite", "--profile", "quick") == 0
    plain = capsys.readouterr().out
    report = tmp_path / "suite.json"
    assert run("suite", "--profile", "quick", "--json", str(report)) == 0
    captured = capsys.readouterr()
    # stdout is the text matrix, byte for byte; the timings stay on stderr
    assert captured.out == plain
    payload = json.loads(report.read_text())
    cids = ["AC-1", "AC-2", "AC-3", "AC-4", "AC-5", "AC-6"]
    assert [record["cid"] for record in payload] == cids
    for record in payload:
        assert set(record) == {"cid", "passed", "detail", "elapsed_ms"}
        assert record["passed"] is True
        assert isinstance(record["elapsed_ms"], int) and record["elapsed_ms"] >= 0
        assert f"{record['cid']:<6} pass  {record['detail']}\n" in captured.out
        assert f"{record['cid']} finished in {record['elapsed_ms']} ms" in captured.err
