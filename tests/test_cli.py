"""CLI behavior: parsing, JSON schema, exit codes, end-to-end commands."""

from __future__ import annotations

import json

import pytest

import linform
from conftest import brute_image
from linform import cli, modular, verify
from linform.modular import ResidueSet
from linform.verify import CheckFailure, check_crt_construction, packaged_locals

RESULT_KEYS = {"command", "inputs", "outputs", "status", "reason"}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_rejected(capsys, *argv):
    """(exit code, stdout, stderr) of argv that argparse itself rejects."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def assert_one_error_line(code, out, err, prefix):
    """Exit 2, nothing on stdout, and one error line that starts with prefix."""
    assert code == 2
    assert out == ""
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert set(data) == RESULT_KEYS
    assert json.loads(json.dumps(data)) == data
    return code, data, err


class TestImageCommand:
    def test_inline(self, capsys):
        code, out, _ = run(capsys, "image", "-f", "2,1", "--inline", "0,1,2")
        assert code == 0
        assert "|f(A)| = 7" in out

    def test_singleton(self, capsys):
        code, data, _ = run_json(capsys, "image", "-f", "1,1", "--inline", "5")
        assert code == 0
        assert data["inputs"] == {"form": "1,1", "set": {"inline": "5"}}
        assert data["outputs"]["cardinality"] == 1

    def test_file_source(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("# comment\n0\n2\n3\n4\n7\n11\n12\n14\n")
        code, data, _ = run_json(capsys, "image", "-f", "1,1", "-A", str(path))
        assert code == 0
        assert data["outputs"]["cardinality"] == 26

    def test_full_listing(self, capsys):
        code, data, _ = run_json(capsys, "image", "-f", "2,1", "--inline", "0,1,2", "--full")
        assert data["outputs"]["image"] == [0, 1, 2, 3, 4, 5, 6]

    def test_parse_error_names_token(self, capsys):
        code, out, err = run(capsys, "image", "-f", "2,x", "--inline", "0,1")
        assert code == 2
        assert "'x'" in err

    def test_missing_set_is_usage_error(self, capsys):
        code, _, err = run(capsys, "image", "-f", "2,1")
        assert code == 2
        assert "inline" in err

    @pytest.mark.parametrize("command,form,size", [("image", ("-f", "1,1"), 5001),
                                                   ("image", ("-f", "1,1,1"), 293),
                                                   ("compare", ("-f", "1,1", "-g", "2,1"), 5001)])
    def test_image_beyond_value_cap_is_usage_error(self, capsys, command, form, size):
        # Sparse sets: the bound is |A|^n, just above the cap, and nothing is folded.
        inline = ",".join(str(10**6 * x) for x in range(size))
        code, out, err = run(capsys, command, *form, "--inline", inline)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: |f(A)| may reach {size ** (len(form[1]) // 2 + 1)} values")
        assert err.rstrip().endswith(f"above the cap {cli.IMAGE_VALUE_CAP}")

    def test_dense_set_is_bounded_by_its_window(self, capsys):
        # 6,000^2 tuples exceed the cap, but x+y of an interval has 11,999 values.
        inline = ",".join(str(x) for x in range(6000))
        code, data, _ = run_json(capsys, "image", "-f", "1,1", "--inline", inline)
        assert code == 0
        assert data["outputs"]["cardinality"] == 11999


class TestCompareCommand:
    def test_ordering(self, capsys):
        code, data, _ = run_json(capsys, "compare", "-f", "2,1", "-g", "1,1",
                                 "--inline", "0,1")
        assert code == 0
        assert data["outputs"] == {"f_card": 4, "g_card": 3, "relation": ">"}


@pytest.mark.parametrize("command,forms", [("image", ("-f", "2,1")),
                                           ("compare", ("-f", "2,1", "-g", "1,1"))])
def test_empty_set_file_is_usage_error(capsys, tmp_path, command, forms):
    path = tmp_path / "empty.txt"
    path.write_text("# no elements\n\n")
    code, out, err = run(capsys, command, *forms, "-A", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: bad set file {str(path)!r}: a set needs at least one element\n"


@pytest.mark.parametrize("name,content,reason", [
    ("empty.json", "[]", "a set needs at least one element"),
    ("floats.json", "[1, 2.5]", "set elements must be integers, got 2.5"),
    ("bools.json", "[0, true]", "set elements must be integers, got True"),
    ("words.txt", "1\nx\n", "line 2: not an integer: 'x'"),
])
@pytest.mark.parametrize("command,forms", [("image", ("-f", "2,1")),
                                           ("compare", ("-f", "2,1", "-g", "1,1"))])
def test_bad_set_file_computes_no_image(capsys, tmp_path, monkeypatch, command, forms, name, content, reason):
    def no_image(*args, **kwargs):
        raise AssertionError("an image was computed")
    monkeypatch.setattr(cli, "image", no_image)
    monkeypatch.setattr(cli, "image_cardinality", no_image)
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, command, *forms, "-A", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: bad set file {str(path)!r}: {reason}\n"


@pytest.mark.parametrize("name,content", [("binary.txt", b"1\n\xff\xfe\n2\n"),
                                          ("nested.json", b"[" * 100_000)],
                         ids=["non-utf8", "deeply-nested-json"])
@pytest.mark.parametrize("command,forms", [("image", ("-f", "2,1")),
                                           ("compare", ("-f", "2,1", "-g", "1,1"))])
def test_unparsable_set_file_is_usage_error(capsys, tmp_path, command, forms, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(capsys, command, *forms, "-A", str(path))
    assert_one_error_line(code, out, err, f"error: bad set file {str(path)!r}: ")


@pytest.mark.parametrize("command,forms", [("image", ("-f", "1,1")),
                                           ("compare", ("-f", "2,1", "-g", "1,1"))])
def test_set_file_and_inline_together_is_usage_error(capsys, tmp_path, command, forms):
    path = tmp_path / "a.txt"
    path.write_text("0\n5\n")
    code, out, err = run(capsys, command, *forms, "-A", str(path), "--inline", "0,1")
    assert code == 2
    assert out == ""
    assert err == "error: give the set with -A FILE or --inline, not both\n"


def test_runtime_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(form):
        raise RuntimeError("self-check failed")
    monkeypatch.setattr(cli, "classify_triples", broken)
    with pytest.raises(RuntimeError, match="^self-check failed$"):
        cli.main(["classify3", "-u", "3", "-v", "1"])
    assert capsys.readouterr() == ("", "")


class TestClassifyCommand:
    def test_basic(self, capsys):
        code, data, _ = run_json(capsys, "classify3", "-u", "3", "-v", "1")
        assert code == 0
        assert data["outputs"]["exceptional"] == [
            {"set": [0, 1, 3], "cardinality": 8},
            {"set": [0, 1, 4], "cardinality": 8},
        ]

    def test_unnormalized_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify3", "-u", "2", "-v", "4")
        assert code == 2

    @pytest.mark.parametrize("v", ["1", "-1"])
    def test_sum_and_difference_are_usage_errors(self, capsys, v):
        code, out, err = run(capsys, "classify3", "-u", "1", "-v", v)
        assert code == 2
        assert out == ""
        assert err.startswith("error: every triple is exceptional")

    @pytest.mark.usefixtures("time_limit")
    @pytest.mark.parametrize("v", ["1", "-1"])
    def test_large_form_has_the_two_families(self, capsys, v):
        # The classes come from the collision equations, so u + |v| is not capped.
        code, data, _ = run_json(capsys, "classify3", "-u", "1000003", "-v", v)
        assert code == 0
        assert data["outputs"]["exceptional"] == [
            {"set": [0, 1, 1000003], "cardinality": 8},
            {"set": [0, 1, 1000004], "cardinality": 8},
        ]


class TestWitnessCommand:
    def test_three(self, capsys):
        code, data, _ = run_json(capsys, "witness", "three", "-f", "3,1", "-g", "5,1")
        assert code == 0
        assert data["outputs"]["set_a"] == [0, 1, 3]

    def test_four(self, capsys):
        code, data, _ = run_json(capsys, "witness", "four", "-u", "2", "-v", "1")
        assert data["outputs"]["f_of_a"] == 13

    def test_five(self, capsys):
        code, data, _ = run_json(capsys, "witness", "five", "-u", "2", "-v", "1")
        assert data["outputs"]["set"] == [0, 1, 3, 7, 15]
        assert data["outputs"]["d_card"] == 21

    def test_ap(self, capsys):
        code, data, _ = run_json(capsys, "witness", "ap", "-u", "3", "-v", "2", "-t", "3")
        assert data["outputs"]["f_card"] == 9 == data["outputs"]["g_card"]

    def test_ap_beyond_value_cap_builds_no_set(self, capsys, monkeypatch):
        def no_set(*args):
            raise AssertionError("the progression was built")
        monkeypatch.setattr(cli, "ap_equality_set", no_set)
        code, out, err = run(capsys, "witness", "ap", "-u", "1000001", "-v", "1", "-t", "5001")
        assert code == 2
        assert out == ""
        assert err == (f"error: |f(A)| may reach {5001 ** 2} values (min of |A|^n and the window width), "
                       f"above the cap {cli.IMAGE_VALUE_CAP}\n")

    def test_ap_within_value_cap_runs(self, capsys):
        code, data, _ = run_json(capsys, "witness", "ap", "-u", "1001", "-v", "1", "-t", "200")
        assert code == 0
        assert data["outputs"]["f_card"] == 200 ** 2 == data["outputs"]["g_card"]

    def test_missing_parameters(self, capsys):
        code, out, err = run_rejected(capsys, "witness", "five", "-u", "2")
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: -v" in err

    @pytest.mark.parametrize("argv, flag", [
        (("four", "-u", "2", "-v", "1", "-t", "3"), "-t 3"),
        (("five", "-u", "2", "-v", "1", "-t", "1"), "-t 1"),
        (("three", "-f", "3,1", "-g", "5,1", "-u", "2"), "-u 2"),
        (("ap", "-u", "3", "-v", "2", "-t", "2", "-f", "2,1"), "-f 2,1"),
    ])
    def test_flag_of_another_kind_is_rejected(self, capsys, argv, flag):
        code, out, err = run_rejected(capsys, "witness", *argv)
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("argv, message", [
        (("five", "-u", "3", "-v", "3"), "need u > v >= 1, got u=3, v=3"),
        (("four", "-u", "3", "-v", "3"), "need u > v >= 1, got u=3, v=3"),
        (("ap", "-u", "3", "-v", "2", "-t", "0"), "progression length must satisfy"),
        (("three", "-f", "3,1", "-g", "3,-1"), "forms with equal (u, |v|) admit no 3-element witness"),
    ])
    def test_parameters_outside_constructor_range(self, capsys, argv, message):
        code, out, err = run(capsys, "witness", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")


HUGE = 10**200 + 1
HUGE_SET = [10**199 * k + j for k, j in ((1, 3), (2, 5), (7, 11))]  # three 200-digit values


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize(("argv", "counts"), [
    (["witness", "five", "-u", str(HUGE), "-v", "7"],
     lambda o: [(o["f_card"], (HUGE, 7), o["set"]), (o["d_card"], (1, -1), o["set"])]),
    (["witness", "four", "-u", str(HUGE), "-v", "7"],
     lambda o: [(o[f"{f}_of_{s}"], (HUGE, c), o[f"set_{s}"]) for f, c in (("f", 7), ("g", -7)) for s in "ab"]),
    (["classify3", "-u", str(HUGE), "-v", "7"],
     lambda o: [(e["cardinality"], (HUGE, 7), e["set"]) for e in o["exceptional"]]),
    (["image", "-f", "2,1", "--inline", ",".join(map(str, HUGE_SET))],
     lambda o: [(o["cardinality"], (2, 1), HUGE_SET)]),
], ids=["witness-five", "witness-four", "classify3", "image"])
def test_small_sets_of_huge_values_count_exactly(capsys, argv, counts):
    # Sets of 3 to 5 elements of up to 600 digits, counted by the kernel auto
    # plans (merge, on gcd-reduced offsets or limbs), against brute force.
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    checked = counts(data["outputs"])
    assert checked
    for card, coeffs, elems in checked:
        assert card == len(brute_image(coeffs, elems)), (coeffs, elems)


class TestLocalSearchCommand:
    def test_search(self, capsys):
        code, data, _ = run_json(capsys, "local-search", "-f", "2,1", "-g", "1,1",
                                 "-m", "13", "--budget", "10000", "--seed", "0")
        assert code == 0
        num, den = data["outputs"]["ratio"]
        assert num / den <= 12 / 13

    def test_modulus_beyond_cap_is_usage_error(self, capsys):
        m = cli.LOCAL_SEARCH_MODULUS_CAP + 1
        code, out, err = run(capsys, "local-search", "-f", "2,1", "-g", "1,1", "-m", str(m))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --modulus is capped at {cli.LOCAL_SEARCH_MODULUS_CAP}")

    def test_negative_budget_is_usage_error(self, capsys):
        code, out, err = run(capsys, "local-search", "-f", "2,1", "-g", "1,1", "-m", "13",
                             "--budget", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: budget must be >= 0, got -1")

    def test_budget_beyond_cap_is_usage_error(self, capsys):
        budget = cli.LOCAL_SEARCH_BUDGET_CAP + 1
        code, out, err = run(capsys, "local-search", "-f", "2,1", "-g", "1,1", "-m", "13",
                             "--budget", str(budget))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --budget is capped at {cli.LOCAL_SEARCH_BUDGET_CAP}")


class TestConstructCommand:
    def test_file_source_reproduction(self, capsys, tmp_path):
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps([r.to_dict() for r in packaged_locals()]))
        set_path = tmp_path / "out.txt"
        code, data, _ = run_json(
            capsys, "construct", "-f", "2,1", "-g", "1,1",
            "--source", "file", "--locals", str(locals_path),
            "--window", "1", "--set-out", str(set_path),
        )
        assert code == 0
        assert data["status"] == "success"
        assert data["outputs"]["set_size"] == 2646
        assert data["outputs"]["f_card"] == 108014
        assert data["outputs"]["g_card"] == 114575
        assert data["outputs"]["set"] == {"file": str(set_path), "size": 2646}
        assert len(set_path.read_text().splitlines()) == 2646

    def test_identical_forms_fail_with_ratio_one(self, capsys, tmp_path):
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps([r.to_dict() for r in packaged_locals()]))
        code, data, _ = run_json(capsys, "construct", "-f", "1,1", "-g", "1,1",
                                 "--source", "file", "--locals", str(locals_path))
        assert code == 1
        assert data["status"] == "failure"
        assert data["outputs"]["ratio_product"] == [1, 1]

    def test_qr_source_reports_honestly(self, capsys):
        code, data, _ = run_json(capsys, "construct", "-f", "2,1", "-g", "1,1",
                                 "--source", "qr", "--count", "2")
        assert data["outputs"]["threshold"] == [1, 6]
        assert data["outputs"]["locals"][0]["modulus"] == 13
        if data["status"] == "failure":
            assert code == 1 and data["reason"]

    @pytest.mark.parametrize("source", ["qr", "kpower"])
    def test_count_beyond_cap_is_usage_error(self, capsys, source):
        count = cli.CONSTRUCT_COUNT_CAP + 1
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1",
                             "--source", source, "--count", str(count))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --count is capped at {cli.CONSTRUCT_COUNT_CAP}")

    def test_qr_source_rejects_other_targets(self, capsys):
        code, _, err = run(capsys, "construct", "-f", "2,1", "-g", "3,1", "--source", "qr")
        assert code == 2

    def test_missing_locals_file(self, capsys):
        code, _, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", "--source", "file")
        assert code == 2

    @pytest.mark.parametrize("entries,message", [
        ([{"modulus": 4, "classes": [0, 1]}, {"modulus": 6, "classes": [0, 1]}],
         "modulus 6 is not coprime"),
        ([{"classes": [0, 1]}], "each entry must be"),
        ([5], "each entry must be"),
        ([{"modulus": 4, "classes": [0, 1]}, {"modulus": 10**12, "classes": [0, 1, 5]}],
         f"modulus {10**12} is above the cap {modular._FFT_MODULUS_CAP}"),
        ([{"modulus": 13.9, "classes": [0.2, 1.9, 3.5]}, {"modulus": 7, "classes": [True, 2]}],
         "moduli and classes must be integers, got 13.9"),
        ([{"modulus": 13, "classes": [0, 1.0]}], "moduli and classes must be integers, got 1.0"),
        ([{"modulus": 7, "classes": [True, 2]}], "moduli and classes must be integers, got True"),
    ], ids=["non-coprime-moduli", "missing-modulus", "not-an-object", "modulus-above-cap",
            "float-modulus", "float-class", "boolean-class"])
    def test_malformed_locals_file_is_usage_error(self, capsys, tmp_path, time_limit, entries, message):
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps(entries))
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1",
                             "--source", "file", "--locals", str(locals_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad locals file {str(locals_path)!r}: {message}")
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("entries,message", [
        ([{"modulus": 13, "classes": [0, 1]}, {"modulus": 1_048_583, "classes": [0, 1]}],
         f"modulus 1048583 is above the cap {modular._FFT_MODULUS_CAP}"),
        ([], "locals file must contain a nonempty JSON array"),
        ([{"modulus": 13, "classes": [0, 1]}, {"modulus": 7, "classes": [0, 1.5]}],
         "moduli and classes must be integers, got 1.5"),
        ([{"modulus": 13, "classes": [0, 1]}, {"modulus": 7, "classes": [0]}, {"modulus": 26, "classes": [0, 1]}],
         "modulus 26 is not coprime to the combined modulus 91"),
        ([{"modulus": m, "classes": [0, 1]} for m in (1_048_573, 1_048_571, 13)],
         f"the moduli sum to 2097157, above the cap {modular.LOCALS_MODULUS_SUM_CAP}"),
    ], ids=["modulus-above-fft-cap", "empty-array", "float-class", "non-coprime-moduli", "moduli-sum-above-cap"])
    def test_bad_locals_file_computes_no_image(self, capsys, tmp_path, monkeypatch, entries, message):
        def no_image(*args, **kwargs):
            raise AssertionError("an image was computed")
        monkeypatch.setattr(modular, "_image_mask", no_image)
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps(entries))
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1",
                             "--source", "file", "--locals", str(locals_path))
        assert code == 2
        assert out == ""
        assert err == f"error: bad locals file {str(locals_path)!r}: {message}\n"

    def test_deeply_nested_locals_file_is_usage_error(self, capsys, tmp_path):
        locals_path = tmp_path / "locals.json"
        locals_path.write_text("[" * 100_000)
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1",
                             "--source", "file", "--locals", str(locals_path))
        assert_one_error_line(code, out, err, f"error: bad locals file {str(locals_path)!r}: ")

    def test_missing_locals_path_is_usage_error(self, capsys, tmp_path):
        locals_path = tmp_path / "absent.json"
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1",
                             "--source", "file", "--locals", str(locals_path))
        assert_one_error_line(code, out, err, f"error: bad locals file {str(locals_path)!r}: [Errno 2]")

    def test_unwritable_set_out_is_usage_error(self, capsys, tmp_path):
        locals_path = tmp_path / "locals.json"
        locals_path.write_text(json.dumps([r.to_dict() for r in packaged_locals()]))
        set_path = tmp_path / "no-such-dir" / "a.txt"
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", "--source", "file",
                             "--locals", str(locals_path), "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: [Errno 2] No such file or directory: ")
        assert str(set_path) in err

    @pytest.mark.parametrize("source", [("--source", "file", "--locals", "unused.json"),
                                        ("--source", "qr", "--count", "4")], ids=["file", "qr"])
    def test_unwritable_set_out_fails_before_the_construction(self, capsys, tmp_path, monkeypatch, source):
        def no_construction(*args, **kwargs):
            raise AssertionError("the construction ran")
        for name in ("build_separating_set", "load_locals", "qr_local_solutions"):
            monkeypatch.setattr(cli, name, no_construction)
        set_path = tmp_path / "no-such-dir" / "a.txt"
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", *source, "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: [Errno 2] No such file or directory: ")

    @pytest.mark.parametrize("argv", [("--source", "qr", "--count", "100000"), ("--source", "file"),
                                      ("--source", "file", "--locals", "absent.json")],
                             ids=["count-over-cap", "file-without-locals", "absent-locals"])
    def test_usage_error_creates_no_set_out(self, capsys, tmp_path, argv):
        set_path = tmp_path / "x.txt"
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", *argv, "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: ")
        assert not set_path.exists()

    def test_usage_error_creates_no_target_of_a_dangling_set_out(self, capsys, tmp_path):
        set_path = tmp_path / "x.txt"
        set_path.symlink_to(tmp_path / "target.txt")
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", "--source", "file",
                             "--locals", "absent.json", "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: ")
        assert set_path.is_symlink() and not set_path.exists()

    def test_failed_construction_keeps_an_existing_set_out(self, capsys, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("construction failed")
        monkeypatch.setattr(cli, "build_separating_set", failing)
        set_path = tmp_path / "a.txt"
        set_path.write_text("1\n2\n")
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", "--source", "qr", "--count", "1",
                             "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: construction failed")
        assert set_path.read_text() == "1\n2\n"

    def test_failed_construction_leaves_no_new_set_out(self, capsys, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("construction failed")
        monkeypatch.setattr(cli, "build_separating_set", failing)
        set_path = tmp_path / "a.txt"
        code, out, err = run(capsys, "construct", "-f", "2,1", "-g", "1,1", "--source", "qr", "--count", "1",
                             "--set-out", str(set_path))
        assert_one_error_line(code, out, err, "error: construction failed")
        assert not set_path.exists()


class TestVerifyCommand:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "mstd")
        assert code == 0
        assert "PASS  mstd-counterexample" in out

    def test_json_form(self, capsys):
        code, data, _ = run_json(capsys, "verify", "--only", "mstd")
        assert data["outputs"]["checks"][0]["ok"] is True

    def test_details_repeat_between_runs(self, capsys):
        # the time is in the check's seconds field, not in its detail
        details = [run_json(capsys, "verify", "--only", "mstd")[1]["outputs"]["checks"][0]["detail"]
                   for _ in range(2)]
        assert details[0] == details[1] == "|A-A|=25 < |A+A|=26"

    def test_unknown_prefix_fails(self, capsys):
        code, data, _ = run_json(capsys, "verify", "--only", "nonexistent")
        assert code == 1

    def test_library_error_is_a_fail_row(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("sums over the subgroup mod 97 do not cover Z/97Z")

        monkeypatch.setattr(verify, "CHECKS", (("broken-self-check", broken, 1.0),))
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert "FAIL  broken-self-check" in out
        assert "RuntimeError: sums over the subgroup mod 97 do not cover Z/97Z" in out
        assert "0/1 checks passed" in out
        assert "Traceback" not in out + err


class TestSharedParser:
    """main() parses every call with one parser, built on the first call."""

    SUBCOMMANDS = ("image", "compare", "classify3", "witness", "local-search", "construct", "verify")

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_image_full_does_not_leak_into_the_next_call(self, capsys):
        run_json(capsys, "image", "-f", "2,1", "--inline", "0,1,2", "--full")
        code, data, _ = run_json(capsys, "image", "-f", "2,1", "--inline", "0,1,2")
        assert code == 0
        assert data["outputs"] == {"cardinality": 7}

    def test_witness_t_does_not_leak_into_the_next_call(self, capsys):
        assert run(capsys, "witness", "ap", "-u", "3", "-v", "2", "-t", "2")[0] == 0
        assert not hasattr(cli.build_parser().parse_args(["witness", "four", "-u", "2", "-v", "1"]), "t")
        code, out, err = run_rejected(capsys, "witness", "ap", "-u", "3", "-v", "2")
        assert (code, out) == (2, "")
        assert "linform witness ap: error: the following arguments are required: -t" in err

    def test_argparse_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["image", "--inline", "0,1"])
        assert exc.value.code == 2
        assert "required: -f/--form" in capsys.readouterr().err
        code, out, _ = run(capsys, "image", "-f", "2,1", "--inline", "0,1,2")
        assert code == 0
        assert "|f(A)| = 7" in out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_after_a_call(self, capsys, command):
        assert run(capsys, "classify3", "-u", "3", "-v", "1")[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: linform {command}")


class TestNegativeControl:
    def test_corrupted_locals_fail_by_name(self, monkeypatch):
        corrupted = packaged_locals()
        corrupted[0] = ResidueSet(13, [0, 1, 6, 7, 9, 12])  # 11 -> 12
        monkeypatch.setattr(verify, "packaged_locals", lambda: corrupted)
        with pytest.raises(CheckFailure, match="expected"):
            check_crt_construction()


class TestEnvironment:
    def test_exports_resolve(self):
        assert len(linform.__all__) == len(set(linform.__all__))
        for name in linform.__all__:
            assert hasattr(linform, name), name
