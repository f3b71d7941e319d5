"""End-to-end tests of the command-line interface, in process via main()."""

import hashlib
import json
from fractions import Fraction

import pytest

from qbc.b2 import B2Weight, f_b2_poly
from qbc.cli import main
from qbc.koornwinder import CACHE_ENV, _cache_path, koorn_oracle
from qbc.macdonald_bcd import FAMILY_D, FamilyTag, mac_row
from qbc.suites import default_config

pytestmark = pytest.mark.usefixtures("isolated_cache")

#: (target, rank, row, --json, byte count, sha256) of compute outputs
COMPUTE_PINS = [
    ("koornwinder", 2, 3, False, 528,
     "a6ea6c20ee16d5b64cc501fd415bef190b9fa9d7ef1ff87b45df99a9a9295bb5"),
    ("koornwinder", 2, 3, True, 2897,
     "c0795eeacb8dc7a04dd76c91cc014ef96312a47dee4f257bb6684d5986c15551"),
    ("koornwinder", 3, 2, False, 370,
     "ece47021180b0c4243dfe175bb883471e70d2faefc682b904f166ba453093874"),
    ("koornwinder", 3, 2, True, 3079,
     "ebff4c5cb0d5790920525ca456f868f57a33ed0e6c3f85991f4a09b117468a58"),
    ("g-series", 2, 3, False, 338,
     "ecbef06edecbafb21cb66772688442e25c5263c48f14b8cd887dcf4bc3f76c9a"),
    ("g-series", 2, 3, True, 1939,
     "a10973f5ac5409c4abd30a6065510d4de28769408090ea6e877a03f0231411f7"),
    ("g-series", 3, 2, False, 342,
     "29d710369576109395cd501ffade3c84693b4b670e45b085a47494963e11de8d"),
    ("g-series", 3, 2, True, 2436,
     "fe685cd38852097f64d49443de689df15560a5782d53411aadb880be8ab826e7"),
    ("macdonald-b", 2, 3, False, 558,
     "6031a04c0d40a22ba05ba2390ec3dff73c45af9c2a5706a4750027ba5387620c"),
    ("macdonald-b", 2, 3, True, 2907,
     "2586b6966e785edcbd331496da2ffb808a8efc1b88d31a5d066134730add7a8c"),
    ("macdonald-b", 3, 2, False, 398,
     "5044d48494f4a1d7371598df18a3e62684c70de4f991013ebbcb3f30e4476d7e"),
    ("macdonald-b", 3, 2, True, 3087,
     "60fc07bc6f4f873d8b34bb65fe564e4b7a18bdc1bab66c1b32d62bcea73555af"),
    ("macdonald-c", 2, 3, False, 250,
     "47933ef56766ccb7b16e80d24121811acc48c80a3e1daf41bd538f05526529d7"),
    ("macdonald-c", 2, 3, True, 1854,
     "21268122f5790ee217410d984220e4998bbddf1dda0111b96c08ad1e8e1d921f"),
    ("macdonald-c", 3, 2, False, 231,
     "8acaf1df9e364807ee1781c5e049cffb8fde29a93d301f5e2076b213ae9571fb"),
    ("macdonald-c", 3, 2, True, 2332,
     "865d122e8ce1cd50ea79324c1e432f5dffd3a25cb22b5b7c405135edea71691c"),
    ("macdonald-d", 2, 3, False, 262,
     "b4a716f10aa851b2f0724aa8750206721f4f2c73ab3ed036ad778e05c780891e"),
    ("macdonald-d", 2, 3, True, 1862,
     "c164eb67f9c530f9b1b1adf9d5ad2dbae52ce903fef177b78a659575f0734a09"),
    ("macdonald-d", 3, 2, False, 235,
     "62580f4fa8ac57bd88555af227ac8b3bab46dedefbb8f86bece5d885dd495b3c"),
    ("macdonald-d", 3, 2, True, 2336,
     "aeebabb45a9ebabb400d21a405e3d71fe18240520af11615f3c4b43b29b15152"),
]


def _write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _strip_seconds(doc):
    for case in doc["cases"]:
        case.pop("seconds", None)
    return doc


class TestCompute:
    def test_weight_zero_is_one(self, capsys):
        assert main(["compute", "aw", "--n", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_json_document_matches_library(self, capsys):
        assert main(["compute", "macdonald-d", "--r", "2", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        P = default_config().points("macdonald")[0].point
        want = mac_row(FamilyTag(FAMILY_D), 2, P, 2)
        assert doc["schema"] == 1
        assert doc["target"] == "macdonald-d"
        assert doc["polynomial"] == want.expand().to_json_obj()

    def test_koornwinder_target_is_oracle(self, capsys):
        assert main(["compute", "koornwinder", "--r", "1", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        P = default_config().points("koornwinder")[0].point
        assert doc["polynomial"] == koorn_oracle((1,), P, 2).expand().to_json_obj()

    @pytest.mark.parametrize("target, n, r, as_json, size, digest", COMPUTE_PINS)
    def test_invariant_targets_print_the_full_polynomial(
        self, target, n, r, as_json, size, digest, capsys
    ):
        # the targets the Koornwinder layer holds as orbit forms print their
        # expansions: the bytes of each output, text and --json, are those
        # the full-term layer printed
        argv = ["compute", target, "--n", str(n), "--r", str(r)] + ["--json"] * as_json
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)

    def test_rank_two_weight(self, capsys):
        assert main(["compute", "b2", "--r1", "1", "--r2", "0"]) == 0
        P = default_config().points("b2")[0].point
        want = f_b2_poly(B2Weight(1, 0), P).format_human()
        assert capsys.readouterr().out.strip() == want

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "poly.txt"
        assert main(["compute", "aw", "--n", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().strip() != ""

    def test_missing_weight_flag(self, capsys):
        assert main(["compute", "aw"]) == 2
        assert "requires --n" in capsys.readouterr().err

    def test_point_index_out_of_range(self, capsys):
        assert main(["compute", "aw", "--n", "1", "--point", "9"]) == 2

    def test_unknown_target(self, capsys):
        assert main(["compute", "nope"]) == 2

    def test_negative_weight_rejected(self, capsys):
        assert main(["compute", "aw", "--n", "-1"]) == 2


class TestVerify:
    def test_trivial_weight_bound_passes(self, capsys):
        assert main(["verify", "b2", "--max-weight", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert all(
            line.startswith("PASS") or line.startswith("suite")
            for line in out.strip().splitlines()
        )

    def test_json_report_shape(self, capsys):
        assert main(["verify", "b2", "--max-weight", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["suite"] == "b2"
        assert doc["passed"] is True
        ids = [c["case"] for c in doc["cases"]]
        assert ids == sorted(ids)

    def test_report_is_deterministic(self, capsys):
        runs = []
        for _ in range(2):
            assert main(["verify", "kernel", "--json"]) == 0
            runs.append(_strip_seconds(json.loads(capsys.readouterr().out)))
        assert runs[0] == runs[1]

    def test_narrowed_family_row_rank(self, capsys):
        rc = main(["verify", "lassalle", "--family", "d", "--r", "2", "--n", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 passed" in out

    def test_narrowing_rejected_elsewhere(self, capsys):
        assert main(["verify", "bibasic", "--family", "d"]) == 2
        assert main(["verify", "koornwinder", "--family", "d"]) == 2

    def test_degenerate_point_exits_three(self, tmp_path, capsys):
        # t T = q pins a denominator ladder at the very first weight
        cfg = _write_config(
            tmp_path,
            {
                "schema": 1,
                "points": {
                    "b2": [{"sqrt_q": "1/3", "sqrt_t": "1/2", "sqrt_T": "2/3"}]
                },
            },
        )
        rc = main(["verify", "b2", "--max-weight", "0", "--config", cfg])
        assert rc == 3
        assert "aborted" in capsys.readouterr().err

    def test_failing_case_exits_one(self, monkeypatch, capsys):
        from qbc.reports import CaseResult, VerificationReport

        def fake(name, cfg, families=None, ranks=None, rows=None):
            rep = VerificationReport(name)
            rep.add(
                CaseResult(
                    "stub-case",
                    "stub-anchor",
                    None,
                    {},
                    "fail",
                    {"expected": "0", "got": "1"},
                )
            )
            return rep

        monkeypatch.setattr("qbc.cli.run_suite", fake)
        assert main(["verify", "kernel"]) == 1
        assert "FAIL stub-case" in capsys.readouterr().out

    def test_degree_floor_enforced(self, capsys):
        assert main(["verify", "askey-wilson", "--degree", "3"]) == 2

    def test_bad_config_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "kernel", "--config", str(path)]) == 2

    def test_config_must_declare_schema(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"degree": 8})
        assert main(["verify", "kernel", "--config", cfg]) == 2

    # each shape is a usage error, exit 2: not a traceback with exit 1, the
    # code of a formula FAIL, not an exit 3 from inside a suite, and not a
    # degree silently truncated to 12
    KERNEL_ABCD = {"a": "3", "b": "5", "c": "7", "d": "21/5"}
    MALFORMED_CONFIGS = {
        "points-array": {"schema": 1, "points": []},
        "point-not-object": {"schema": 1, "points": {"b2": [5]}},
        "group-not-list": {"schema": 1, "points": {"b2": 5}},
        "top-level-array": [{"schema": 1}],
        "cache-dir-number": {"schema": 1, "cache_dir": 5},
        "fractional-degree": {"schema": 1, "degree": 12.7},
        "boolean-beta": {
            "schema": 1,
            "points": {"kernel": [{"sqrt_q": "1/2", "sqrt_t": "1/2", "beta": True}]},
        },
        "boolean-coordinate": {
            "schema": 1,
            "points": {
                "askey-wilson": [{"sqrt_q": "1/2", "a": True, "b": "5", "c": "7", "d": "11"}]
            },
        },
        "boolean-sqrt-param": {
            "schema": 1,
            "points": {
                "macdonald": [{"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_param": True}]
            },
        },
        "zero-denominator-coordinate": {
            "schema": 1,
            "points": {"b2": [{"sqrt_q": "1/0", "sqrt_t": "1/2", "sqrt_T": "1/3"}]},
        },
        "zero-denominator-sqrt-param": {
            "schema": 1,
            "points": {
                "macdonald": [{"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_param": "2/0"}]
            },
        },
        "kernel-point-without-beta": {
            "schema": 1,
            "points": {"kernel": [dict(KERNEL_ABCD, sqrt_q="1/2", sqrt_t="1/2")]},
        },
        "zero-sqrt-param": {
            "schema": 1,
            "points": {
                "macdonald": [{"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_param": "0"}]
            },
        },
        "kernel-beta-zero": {
            "schema": 1,
            "points": {"kernel": [dict(KERNEL_ABCD, sqrt_q="1/2", sqrt_t="1", beta=0)]},
        },
        "kernel-sqrt-t-untied": {
            "schema": 1,
            "points": {"kernel": [dict(KERNEL_ABCD, sqrt_q="1/2", sqrt_t="1/3", beta=1)]},
        },
        # schema 1 is the JSON integer 1, not a value that equals it
        "boolean-schema": {"schema": True, "degree": 5},
        "fractional-schema": {"schema": 1.0},
        # a point without a field its group's suites read
        "b2-point-without-sqrt-T": {
            "schema": 1,
            "points": {"b2": [{"sqrt_q": "1/2", "sqrt_t": "1/3"}]},
        },
        "askey-wilson-point-without-s": {
            "schema": 1,
            "points": {
                "askey-wilson": [{"sqrt_q": "1/2", "a": "3", "b": "5", "c": "7", "d": "11"}]
            },
        },
        "koornwinder-point-without-sqrt-t": {
            "schema": 1,
            "points": {
                "koornwinder": [{"sqrt_q": "1/2", "a": "2", "b": "3", "c": "5", "d": "5/6"}]
            },
        },
        # a point that breaks its group's shape, which the suites would
        # otherwise meet mid-run as a degenerate point
        "b2-character-point-uncollapsed": {
            "schema": 1,
            "points": {"b2-character": [{"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_T": "1/2"}]},
        },
        "koornwinder-alpha-irrational": {
            "schema": 1,
            "points": {
                "koornwinder": [
                    {"sqrt_q": "1/2", "sqrt_t": "1/3", "a": "2", "b": "3", "c": "5", "d": "7"}
                ]
            },
        },
        "kernel-alpha-irrational": {
            "schema": 1,
            "points": {"kernel": [dict(KERNEL_ABCD, d="7", sqrt_q="1/2", sqrt_t="1/2", beta=1)]},
        },
    }

    @pytest.mark.parametrize("shape", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_a_usage_error(self, shape, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(CACHE_ENV)
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, self.MALFORMED_CONFIGS[shape])
        assert main(["verify", "kernel", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("usage error: bad configuration")

    @pytest.mark.parametrize(
        "shape, reason",
        [
            ("boolean-schema", "schema must be an integer, got True"),
            ("fractional-schema", "schema must be an integer, got 1.0"),
            ("b2-point-without-sqrt-T", "b2 points must carry sqrt_T"),
            ("askey-wilson-point-without-s", "askey-wilson points must carry s"),
            ("koornwinder-point-without-sqrt-t", "koornwinder points must carry sqrt_t"),
            ("kernel-point-without-beta", "kernel points must carry beta"),
            (
                "b2-character-point-uncollapsed",
                "b2-character points must have sqrt_q = sqrt_t = sqrt_T",
            ),
            (
                "koornwinder-alpha-irrational",
                "koornwinder points must have abcd/q a rational square: "
                "840 is not the square of a rational",
            ),
            (
                "kernel-alpha-irrational",
                "kernel points must have abcd/q a rational square: "
                "2940 is not the square of a rational",
            ),
        ],
    )
    def test_config_fault_is_named_as_it_loads(self, shape, reason, tmp_path, capsys):
        # refused before any suite runs, not met mid-run as a degenerate
        # point (exit 3) or let through
        cfg = _write_config(tmp_path, self.MALFORMED_CONFIGS[shape])
        assert main(["verify", "all", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"usage error: bad configuration: {reason}\n"

    # a misspelt key or group would otherwise leave the defaults in force
    # and exit 0; the top-level keys are checked first.  A misspelt field
    # inside a point is named with its group, not as a constructor's
    # unexpected keyword
    MISSPELT_CONFIGS = {
        "key-and-group": (
            {"schema": 1, "degre": 30, "points": {"koornwiner": [{"sqrt_q": "1/2"}]}},
            "unknown configuration key 'degre'",
        ),
        "group": (
            {"schema": 1, "points": {"koornwiner": [{"sqrt_q": "1/2"}]}},
            "unknown point group 'koornwiner'",
        ),
        "kernel-point-field": (
            {
                "schema": 1,
                "points": {"kernel": [dict(KERNEL_ABCD, sqrt_q="1/2", sqrt_t="1/2", bta=1)]},
            },
            "unknown field 'bta' in a 'kernel' point",
        ),
        "b2-point-field": (
            {"schema": 1, "points": {"b2": [{"sqrt_q": "1/2", "sqrt_t": "1/3", "sqrt_TT": "1/5"}]}},
            "unknown field 'sqrt_TT' in a 'b2' point",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(MISSPELT_CONFIGS))
    def test_misspelt_config_key_is_refused(self, shape, tmp_path, capsys):
        obj, reason = self.MISSPELT_CONFIGS[shape]
        cfg = _write_config(tmp_path, obj)
        assert main(["verify", "kernel", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"usage error: bad configuration: {reason}\n"

    @pytest.mark.parametrize(
        "argv",
        [["cache", "warm"], ["verify", "lassalle"], ["compute", "macdonald-d", "--r", "1"]],
    )
    def test_macdonald_point_without_sqrt_param_is_a_usage_error(self, argv, tmp_path, capsys):
        # the configuration is refused as it loads, by every command, even
        # one whose family needs no sqrt_param
        cfg = _write_config(
            tmp_path,
            {"schema": 1, "points": {"macdonald": [{"sqrt_q": "1/2", "sqrt_t": "1/3"}]}},
        )
        assert main(argv + ["--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "usage error: bad configuration: macdonald points must carry sqrt_param\n"
        )

    def test_config_replaces_group_wholesale(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "schema": 1,
                "points": {
                    "askey-wilson": [
                        {"sqrt_q": "1/2", "a": "3", "b": "5", "c": "7", "d": "11"}
                    ]
                },
            },
        )
        assert main(["compute", "aw", "--n", "1", "--point", "2", "--config", cfg]) == 2


class TestCache:
    def test_path_honors_flag_over_env(self, tmp_path, capsys):
        override = tmp_path / "elsewhere"
        assert main(["cache", "path", "--cache-dir", str(override)]) == 0
        assert capsys.readouterr().out.strip() == str(override)

    def test_clear_removes_store(self, tmp_path, capsys):
        # a koornwinder expansion populates the store first
        assert main(["compute", "koornwinder", "--r", "1", "--n", "1"]) == 0
        root = tmp_path / "cache"
        assert root.exists() and any(root.iterdir())
        assert main(["cache", "clear"]) == 0
        assert not root.exists()

    def test_clear_keeps_what_the_cache_did_not_write(self, tmp_path, capsys):
        # a cache path pointed at a directory that holds other files removes
        # the oracle entries and a leftover temporary file, nothing else
        victim = tmp_path / "victim"
        store = victim / "koornwinder"
        store.mkdir(parents=True)
        (victim / "notes.txt").write_text("keep")
        (store / "notes.txt").write_text("keep")
        (store / "left-over.tmp").write_text("")
        argv = ["--cache-dir", str(victim)]
        assert main(["compute", "koornwinder", "--r", "1", "--n", "1"] + argv) == 0
        assert any(store.glob("*.json"))
        assert main(["cache", "clear"] + argv) == 0
        assert sorted(p.relative_to(victim).as_posix() for p in victim.rglob("*")) == [
            "koornwinder", "koornwinder/notes.txt", "notes.txt",
        ]

    def test_warm_solves_exactly_what_the_suites_request(self, tmp_path, capsys):
        assert main(["cache", "warm", "--json"]) == 0
        warmed = json.loads(capsys.readouterr().out)["warmed"]
        root = tmp_path / "cache"
        entries = sorted(root.rglob("*.json"))
        assert warmed == len(entries) == 88
        assert main(["verify", "koornwinder"]) == 0
        assert main(["verify", "lassalle"]) == 0
        assert sorted(root.rglob("*.json")) == entries

    def test_clear_reports_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1 and doc["cleared"] is False

    def _rank_one_entry(self, capsys):
        """Fill the rank-one koornwinder entries; return the row-1 and row-2
        entry paths at the first point."""
        assert main(["verify", "koornwinder", "--n", "1"]) == 0
        capsys.readouterr()
        P = default_config().points("koornwinder")[0].point
        return _cache_path((1,), P, 1), _cache_path((2,), P, 1)

    def _assert_solved_again(self, path, capsys):
        assert main(["verify", "koornwinder", "--n", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        entry = json.loads(path.read_text())
        assert (entry["n"], entry["partition"]) == (1, [1])

    def test_entry_copied_over_another_name_is_solved_again(self, capsys):
        row1, row2 = self._rank_one_entry(capsys)
        row1.write_text(row2.read_text())
        self._assert_solved_again(row1, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "koornwinder", "--n", "1", "--r", "1"], ["cache", "warm"], ["cache", "clear"]],
    )
    def test_cache_dir_that_is_a_file_is_a_cache_error(self, argv, tmp_path, monkeypatch, capsys):
        # an unusable store is exit 2 with the path, never a traceback or
        # the formula-FAIL exit 1
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv(CACHE_ENV, str(blocker))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cache error: {blocker}")
        assert "Not a directory" in err and "Traceback" not in err

    def test_truncated_entry_is_solved_again(self, capsys):
        row1, _ = self._rank_one_entry(capsys)
        text = row1.read_text()
        row1.write_text(text[: len(text) // 2])
        self._assert_solved_again(row1, capsys)

    @pytest.mark.parametrize("checksum", ["kept", "missing"])
    def test_changed_coefficient_is_solved_again(self, checksum, capsys):
        # a well-formed entry for the right request whose polynomial no
        # longer matches its checksum, or that has none, is stale: it is
        # solved again, never read into a verdict
        row1, _ = self._rank_one_entry(capsys)
        entry = json.loads(row1.read_text())
        solved = entry["polynomial"]
        changed = json.loads(json.dumps(solved))
        term = changed["terms"][0]
        term["coeff"] = str(Fraction(term["coeff"]) + 1)
        entry["polynomial"] = changed
        if checksum == "missing":
            del entry["sha256"]
        row1.write_text(json.dumps(entry, sort_keys=True))
        self._assert_solved_again(row1, capsys)
        assert json.loads(row1.read_text())["polynomial"] == solved

    def test_entry_names_use_the_nonzero_parts(self):
        P = default_config().points("koornwinder")[0].point
        path = _cache_path((2, 0, 0), P, 3)
        assert path == _cache_path((2,), P, 3)
        assert path.name == f"n3_lam2_{P.canonical_key()}.json"
        assert _cache_path((), P, 3).name == f"n3_lam0_{P.canonical_key()}.json"
