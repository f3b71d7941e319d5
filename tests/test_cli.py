"""End-to-end tests of the command-line interface, in process via main()."""

import json

import pytest

from qbc.b2 import B2Weight, f_b2_poly
from qbc.cli import main
from qbc.algebra import Partition
from qbc.koornwinder import CACHE_ENV, _cache_path, koorn_oracle
from qbc.macdonald_bcd import FAMILY_D, FamilyTag, mac_row
from qbc.suites import default_config


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))


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
        assert doc["polynomial"] == want.to_json_obj()

    def test_koornwinder_target_is_oracle(self, capsys):
        assert main(["compute", "koornwinder", "--r", "1", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        P = default_config().points("koornwinder")[0].point
        assert doc["polynomial"] == koorn_oracle((1,), P, 2).to_json_obj()

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
    # code of a formula FAIL, and not a degree silently truncated to 12
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
    }

    @pytest.mark.parametrize("shape", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_a_usage_error(self, shape, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(CACHE_ENV)
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, self.MALFORMED_CONFIGS[shape])
        assert main(["verify", "kernel", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("usage error: bad configuration")

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
        return _cache_path(Partition((1,)), P, 1), _cache_path(Partition((2,)), P, 1)

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
