"""File round-trips and the command-line front end.

CLI commands run in-process through ``cli.main`` so exit codes and file
artifacts can be asserted without spawning interpreters; the end-to-end
byte-identity check across real processes lives in the acceptance suite.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from cohort_shuffle import Roster, Tolerances, cli, desk_spec, fileio, generate
from conftest import mk_student


@pytest.fixture
def desk_files(tmp_path):
    roster = tmp_path / "roster.csv"
    config = tmp_path / "roster.cfg"
    rc = cli.main(["generate", "--preset", "desk", "--seed", "11",
                   "--roster", str(roster), "--config", str(config)])
    assert rc == 0
    return roster, config


class TestFileRoundTrips:
    def test_roster_round_trip(self, tmp_path):
        original = generate(desk_spec(), seed=4)
        roster_path = tmp_path / "r.csv"
        config_path = tmp_path / "r.cfg"
        fileio.write_roster(original, roster_path, config_path)
        loaded = fileio.read_roster(roster_path, config_path)
        assert loaded == original

    def test_roster_round_trip_with_sparse_tolerances(self, tmp_path):
        tol = Tolerances(merit_max={"aom": 600.0}, min_sapr=1,
                         sapr_companies=frozenset({0}),
                         num_intl=None)
        original = Roster(
            students=(mk_student(0, 0, is_sapr_guide=True, sports=frozenset({"crew"})),
                      mk_student(1, 1, gender="female", race="other")),
            num_companies=2, battalions=((0,), (1,)),
            conflict_pairs=(("s00", "s01"),), tolerances=tol,
            aom_weight=0.25, mom_weight=0.75)
        fileio.write_roster(original, tmp_path / "r.csv", tmp_path / "r.cfg")
        loaded = fileio.read_roster(tmp_path / "r.csv", tmp_path / "r.cfg")
        assert loaded == original

    def test_assignment_round_trip(self, tmp_path):
        roster = generate(desk_spec(num_companies=3, company_size=3), seed=1)
        asg = {s.id: (s.old_company + 1) % 3 for s in roster.students}
        path = tmp_path / "asg.csv"
        fileio.write_assignment(path, roster, asg)
        assert fileio.read_assignment(path) == asg
        header = path.read_text().splitlines()[0]
        assert header == "id,old_company,new_company"

    def test_meta_round_trip_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "m.json"
        fileio.write_meta(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")
        assert fileio.read_meta(path) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}

    def test_config_supports_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\nnum_companies = 2\nbattalions=1,1\n\n"
                       "conflict_pair = a,b\nconflict_pair = c,d\n")
        parsed = fileio.parse_config(cfg)
        assert parsed["num_companies"] == ["2"]
        assert parsed["conflict_pair"] == ["a,b", "c,d"]

class TestCliSolvePipeline:
    def test_generate_validate_solve_certify_report_bound(self, desk_files, tmp_path, capsys):
        roster, config = desk_files
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 0

        out = tmp_path / "min.csv"
        rc = cli.main(["solve", "--roster", str(roster), "--config", str(config),
                       "--variant", "min", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "status: proven_optimal" in printed
        assert "objective: 0" in printed

        meta = fileio.read_meta(tmp_path / "min.csv.meta.json")
        assert meta["variant"] == "min"
        assert meta["status"] == "proven_optimal"
        assert meta["objective"] == 0.0
        assert meta["certificate_ok"] is True
        assert "runtime" not in meta  # timing never lands in result files

        assert cli.main(["certify", "--roster", str(roster), "--config", str(config),
                         "--variant", "min", "--result", str(out)]) == 0

        report = tmp_path / "report.csv"
        assert cli.main(["report", "--roster", str(roster), "--config", str(config),
                         "--assignment", str(out), "--format", "csv",
                         "--out", str(report)]) == 0
        assert report.read_text().startswith("statistic,AOM,MOM")

        assert cli.main(["bound", "--roster", str(roster), "--config", str(config)]) == 0
        bound_out = capsys.readouterr().out
        assert "total" in bound_out and "8" in bound_out

    def test_export_lp(self, desk_files, tmp_path):
        roster, config = desk_files
        lp = tmp_path / "model.lp"
        rc = cli.main(["export-lp", "--roster", str(roster), "--config", str(config),
                       "--variant", "pairs", "--out", str(lp)])
        assert rc == 0
        text = lp.read_text()
        assert text.startswith("\\ cohort-shuffle model export")
        assert "Binaries" in text

    def test_report_defaults_to_previous_companies(self, desk_files, capsys):
        roster, config = desk_files
        assert cli.main(["report", "--roster", str(roster), "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "minimum" in out and "AOM" in out

    def test_bound_prints_the_floor_certify_uses(self, tmp_path, capsys):
        """Companies of 14 over 5 destinations: the even spread (3+3+3+3+2
        students, 13 pairs) is above the pigeonhole excess of 9, and bound
        prints the floor certify checks against."""
        roster, config, out = (tmp_path / name for name in ("r.csv", "r.cfg", "new.csv"))
        files = ["--roster", str(roster), "--config", str(config)]
        assert cli.main(["generate", "--preset", "balanced", "--companies", "6",
                         "--company-size", "14", *files]) == 0
        assert cli.main(["solve", *files, "--variant", "pairs", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["bound", *files]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"C{c}: size=14 bound=13" for c in range(1, 7)] + ["total: 78"]
        assert cli.main(["certify", *files, "--variant", "pairs", "--result", str(out)]) == 0
        assert "bound: 78" in capsys.readouterr().out.splitlines()


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert cli.main([]) == 1
        assert cli.main(["frobnicate"]) == 1
        assert cli.main(["solve", "--no-such-flag"]) == 1

    def test_validate_reports_structural_defects(self, tmp_path, capsys):
        r = generate(desk_spec(num_companies=2, company_size=2,
                               num_conflict_pairs=0), seed=0)
        broken = Roster(students=r.students + (r.students[0],), num_companies=2,
                        battalions=r.battalions, tolerances=r.tolerances)
        fileio.write_roster(broken, tmp_path / "r.csv", tmp_path / "r.cfg")
        rc = cli.main(["validate", "--roster", str(tmp_path / "r.csv"),
                       "--config", str(tmp_path / "r.cfg")])
        assert rc == 2
        assert "appears more than once" in capsys.readouterr().out

    @pytest.fixture
    def infeasible_files(self, tmp_path) -> list[str]:
        # a locked student in a single-company battalion cannot move anywhere
        students = (mk_student(0, 0, battalion_locked=True), mk_student(1, 1))
        r = Roster(students=students, num_companies=2, battalions=((0,), (1,)))
        fileio.write_roster(r, tmp_path / "r.csv", tmp_path / "r.cfg")
        return ["--roster", str(tmp_path / "r.csv"), "--config", str(tmp_path / "r.cfg")]

    def test_solve_infeasible_exits_2(self, infeasible_files):
        assert cli.main(["solve", *infeasible_files, "--variant", "dev"]) == 2

    def test_solve_out_of_budget_exits_3(self, infeasible_files, tmp_path, capsys):
        """No warm start and no time left: the search stops before it can
        tell the roster is infeasible, and no file is written."""
        out = tmp_path / "new.csv"
        rc = cli.main(["solve", *infeasible_files, "--variant", "dev", "--time-limit", "0",
                       "--out", str(out)])
        assert rc == 3
        assert "status: time_limit_no_solution" in capsys.readouterr().out.splitlines()
        assert not out.exists() and not (tmp_path / "new.csv.meta.json").exists()

    @pytest.mark.parametrize("flag", ["--time-limit", "--node-limit"])
    def test_negative_budget_or_gap_is_a_usage_error(self, flag, desk_files, capsys):
        """A negative budget exits 1 before any solve; 0 is a valid value."""
        roster, config = desk_files
        solve = ["solve", "--roster", str(roster), "--config", str(config), "--variant", "min"]
        assert cli.main([*solve, flag, "-1"]) == 1
        assert f"argument {flag}: must be at least 0, not -1" in capsys.readouterr().err
        assert cli.main([*solve, flag, "0"]) in (0, 3)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--time-limit"])
    def test_non_finite_number_is_a_usage_error(self, flag, text, desk_files, capsys, tmp_path):
        """inf would stop nothing, and the sidecar would hold JSON's
        non-standard Infinity or NaN."""
        roster, config = desk_files
        out = tmp_path / "new.csv"
        solve = ["solve", "--roster", str(roster), "--config", str(config), "--variant", "dev",
                 "--node-limit", "0", "--out", str(out)]
        assert cli.main([*solve, f"{flag}={text}"]) == 1
        assert f"argument {flag}: must be finite, not {text}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gap-abs", "--gap-rel", "--external-lb"])
    def test_no_flag_overrules_the_proof(self, flag, desk_files, capsys, tmp_path):
        """solve proves optimality only against bounds it derives: a gap or
        an outside lower bound is not an option."""
        roster, config = desk_files
        out = tmp_path / "new.csv"
        assert cli.main(["solve", "--roster", str(roster), "--config", str(config),
                         "--variant", "min", flag, "0", "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_tampered_result_exits_4(self, desk_files, tmp_path):
        roster, config = desk_files
        out = tmp_path / "min.csv"
        assert cli.main(["solve", "--roster", str(roster), "--config", str(config),
                         "--variant", "min", "--out", str(out)]) == 0
        meta_path = tmp_path / "min.csv.meta.json"
        meta = fileio.read_meta(meta_path)
        meta["objective"] = 17.0
        fileio.write_meta(meta_path, meta)
        rc = cli.main(["certify", "--roster", str(roster), "--config", str(config),
                       "--variant", "min", "--result", str(out)])
        assert rc == 4

    def test_missing_file_exits_1(self, tmp_path):
        rc = cli.main(["validate", "--roster", str(tmp_path / "nope.csv"),
                       "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "cohort-shuffle" in capsys.readouterr().out


class TestAssignmentInput:
    """A malformed or incomplete assignment file is an input error (exit 1)
    for ``certify`` and ``report``, not an internal one."""

    EDITS = {
        "header": (lambda lines: ["id,old,new", *lines[1:]],
                   "expected header id,old_company,new_company"),
        "short_row": (lambda lines: [*lines[:3], "s0003,1", *lines[4:]],
                      ":4: expected 3 cells, one per header column"),
        "first_four_students": (lambda lines: lines[:5], "no row for roster student 's0005'"),
        "unknown_student": (lambda lines: [*lines, "s9999,1,1"],
                            "student 's9999' is not in the roster"),
        "repeated_student": (lambda lines: [*lines, lines[1]],
                             ":66: student 's0001' appears on an earlier row"),
    }

    @pytest.fixture
    def solved(self, tmp_path):
        roster, config, out = tmp_path / "roster.csv", tmp_path / "roster.cfg", tmp_path / "new.csv"
        assert cli.main(["generate", "--preset", "desk", "--seed", "7",
                         "--roster", str(roster), "--config", str(config)]) == 0
        assert cli.main(["solve", "--roster", str(roster), "--config", str(config),
                         "--variant", "min", "--out", str(out)]) == 0
        return ["--roster", str(roster), "--config", str(config)], out

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_certify_and_report_exit_1(self, case, solved, capsys):
        files, out = solved
        edit, message = self.EDITS[case]
        out.write_text("\n".join(edit(out.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert cli.main(["certify", *files, "--variant", "min", "--result", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["report", *files, "--assignment", str(out)]) == 1
        assert message in capsys.readouterr().err


class TestSidecarInput:
    """A sidecar that is not a JSON object, or whose keys certify reads hold
    the wrong kind of value, is an input error (exit 1) naming the file;
    keys certify does not read are ignored."""

    EDITS = {
        "array": lambda meta: [meta],
        "nodes_null": lambda meta: {**meta, "nodes": None},
        "bound_null": lambda meta: {**meta, "bound": None},
        "lp_iterations_float": lambda meta: {**meta, "lp_iterations": 1.5},
        "objective_text": lambda meta: {**meta, "objective": "8"},
        "status_unknown": lambda meta: {**meta, "status": "optimal"},
    }

    @pytest.fixture
    def solved(self, tmp_path):
        roster, config, out = tmp_path / "roster.csv", tmp_path / "roster.cfg", tmp_path / "new.csv"
        assert cli.main(["generate", "--preset", "desk", "--seed", "7",
                         "--roster", str(roster), "--config", str(config)]) == 0
        files = ["--roster", str(roster), "--config", str(config), "--variant", "pairs"]
        assert cli.main(["solve", *files, "--out", str(out)]) == 0
        return files, out

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_malformed_sidecar_exits_1(self, case, solved, tmp_path, capsys):
        files, out = solved
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.EDITS[case](fileio.read_meta(f"{out}.meta.json"))))
        capsys.readouterr()
        assert cli.main(["certify", *files, "--result", str(out), "--meta", str(bad)]) == 1
        assert f"error: {bad}: " in capsys.readouterr().err

    def test_keys_of_an_older_sidecar_are_ignored(self, solved, capsys):
        files, out = solved
        meta = fileio.read_meta(f"{out}.meta.json")
        fileio.write_meta(f"{out}.meta.json",
                          {**meta, "external_lb": 8.0, "gap_abs": 0.0, "gap_rel": 0.0})
        capsys.readouterr()
        assert cli.main(["certify", *files, "--result", str(out)]) == 0
        assert "certificate: ok" in capsys.readouterr().out.splitlines()


class TestDeterministicArtifacts:
    def test_two_inprocess_runs_write_identical_bytes(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            roster, config = d / "r.csv", d / "r.cfg"
            out = d / "pairs.csv"
            assert cli.main(["generate", "--preset", "desk", "--seed", "3",
                             "--roster", str(roster), "--config", str(config)]) == 0
            assert cli.main(["solve", "--roster", str(roster), "--config", str(config),
                             "--variant", "pairs", "--out", str(out)]) == 0
            blobs.append(tuple(p.read_bytes() for p in
                               (roster, config, out, d / "pairs.csv.meta.json")))
        assert blobs[0] == blobs[1]


#: sha256 of each artifact of the README walkthrough roster (desk seed 7),
#: pinned across commits: a change that moves a solve's status, bound,
#: gap, node count or LP iterations changes one of them.  Each case is
#: (solve arguments, exit code, stdout, assignment CSV, ``.meta.json``).
WALKTHROUGH_SHA256 = {
    "pairs": (["--variant", "pairs"], 0,
              "32d183f09feda9c3239547410ee9ac193a7ec2a828ace4b97565ab3303d1b625",
              "92f58358e62b0f85aa46a0bd1511577756793390b20a4abef5ee9b26af0a3b33",
              "08e98483a485f4a4e1d9232af381bc729bb5440cc5d8b9b7d7d45eab7d0e09a5"),
    "min": (["--variant", "min"], 0,
            "1f42fddd061178183f221197b79266da889e8817d0bd9bbd2c9fee53d067770d",
            "72f2a0a590e194775fc0deda519adbaf1f005c5a7ed23a8fe55443bc1f05fecd",
            "f20aa7d5b14f2db74402ad45f3bfb2bdabc28d0bd97010ee46c54a5bd7ad98d5"),
    "dev-nodes-2": (["--variant", "dev", "--node-limit", "2"], 3,
                    "60bedd00a8b9315f940fdb4a97c4ed660f3ac013ada56b5ff4d21e6fadd78bf9",
                    "27246ca5d2da858580ade592fda4466ecaafb2c38f5387e5bc601b3b6cf5eab8",
                    "381346747173e26da7b2cb6f903e53f9bf87e0e86ad4326832e2cecbf7d58163"),
    # the time limit counts from the call and the warm start's descents stop
    # at it: no move and no node is made, and the best undescended
    # feasible start is written
    "dev-no-time": (["--variant", "dev", "--time-limit", "0"], 3,
                    "045b48a5acad064bb251991377ade2da8326f1899fd2e71abfeadc3615696182",
                    "11080041d83b8cff2afea18aa8d5d470118797095fa7ca1d11c407a8145c29ce",
                    "dafe0fb1f7bff6e335df01537e39b32a739667eb3731c6bf85b869fdd6b884e0"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestWalkthroughArtifacts:
    @pytest.fixture
    def walkthrough_files(self, tmp_path):
        roster, config = tmp_path / "roster.csv", tmp_path / "roster.cfg"
        assert cli.main(["generate", "--preset", "desk", "--seed", "7",
                         "--roster", str(roster), "--config", str(config)]) == 0
        return roster, config

    def _solve(self, files, args, out, capsys) -> tuple[int, str]:
        roster, config = files
        capsys.readouterr()
        rc = cli.main(["solve", "--roster", str(roster), "--config", str(config),
                       *args, "--out", str(out)])
        return rc, capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(WALKTHROUGH_SHA256))
    def test_artifacts_match_the_pinned_hashes(self, case, walkthrough_files, tmp_path, capsys):
        args, code, stdout_sha, csv_sha, meta_sha = WALKTHROUGH_SHA256[case]
        out = tmp_path / "new.csv"
        rc, stdout = self._solve(walkthrough_files, args, out, capsys)
        meta = tmp_path / "new.csv.meta.json"
        assert rc == code
        assert _sha(stdout.encode()) == stdout_sha, stdout
        assert _sha(out.read_bytes()) == csv_sha
        assert _sha(meta.read_bytes()) == meta_sha, meta.read_text()

    @pytest.mark.parametrize("case", sorted(WALKTHROUGH_SHA256))
    def test_sidecars_are_strict_json(self, case, walkthrough_files, tmp_path, capsys):
        """A strict parser reads every sidecar: none holds ``Infinity`` or ``NaN``."""
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        self._solve(walkthrough_files, WALKTHROUGH_SHA256[case][0], tmp_path / "new.csv", capsys)
        json.loads((tmp_path / "new.csv.meta.json").read_text(), parse_constant=reject)

    def test_readme_shows_the_pairs_stdout(self, walkthrough_files, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shown = re.search(r"--variant pairs --out new\.csv\n```\n\n```\n(.*?)```",
                          readme, re.S)
        assert shown is not None
        _, stdout = self._solve(walkthrough_files, ["--variant", "pairs"],
                                tmp_path / "new.csv", capsys)
        assert stdout == shown.group(1)


def _generate(tmp_path, *args) -> tuple[Path, Path]:
    roster, config = tmp_path / "roster.csv", tmp_path / "roster.cfg"
    assert cli.main(["generate", *args, "--roster", str(roster), "--config", str(config)]) == 0
    return roster, config


def _edit_config(config: Path, **values) -> None:
    """Rewrite ``key = value`` lines in place; a value of None drops the key."""
    lines = []
    for line in config.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if key not in values:
            lines.append(line)
        elif values[key] is not None:
            lines.append(f"{key} = {values[key]}")
    config.write_text("\n".join(lines) + "\n")


#: sha256 of the (roster CSV, companion config) that ``generate`` writes,
#: pinned across commits, for each preset and the reference class years.
GENERATE_SHA256 = {
    "reference": (["--preset", "reference", "--seed", "1"],
                  "0a553345f43a60aaaa15778c1a25a33837e35722b6ad08c9f235eabe585dce7d",
                  "c6962bfba142662a7c01b30172fd932bd4a645c63c0cf7b6fb9b5a691512bf50"),
    "reference-2024": (["--preset", "reference", "--class-year", "2024", "--seed", "1"],
                       "ce1dc6524ef76e510c532c8fbdd4d70653d73d8436d9dd026e40ea53c316b9a3",
                       "c8d95c78830bde06154e33ddc4dacc1ce53e78ea26e59196ece03a62dfa31040"),
    "balanced": (["--preset", "balanced", "--companies", "6", "--company-size", "14",
                  "--seed", "1"],
                 "c884f774e0ba1fb90230cfc0dc6cf1b51a325d891eab97ac214f734093bf5bce",
                 "5880d9598e9a09879eb10885fea6235889e7f12d59e5909a8126a0b1a1d35bbc"),
    "desk": (["--preset", "desk", "--seed", "3"],
             "cdd3c6e72c8876d41cedefbfacb3be4f9af1ad1dcd2b5fdc0e9b01832232ca83",
             "6b4078b744aa1093e18875e23150b1ce65d0f654575b0369ba865c643fd422b5"),
}


class TestGenerate:
    @pytest.mark.parametrize("case", sorted(GENERATE_SHA256))
    def test_files_match_the_pinned_hashes(self, case, tmp_path):
        args, csv_sha, cfg_sha = GENERATE_SHA256[case]
        roster, config = _generate(tmp_path, *args)
        assert (_sha(roster.read_bytes()), _sha(config.read_bytes())) == (csv_sha, cfg_sha)
        # every key the writer emits is one the reader accepts
        read_back = fileio.config_lines(fileio.read_roster(roster, config))
        assert read_back == config.read_text().splitlines()

    @pytest.mark.parametrize("given", [["--companies", "6"], ["--company-size", "14"]])
    def test_balanced_needs_both_shape_flags(self, given, tmp_path, capsys):
        rc = cli.main(["generate", "--preset", "balanced", *given,
                       "--roster", str(tmp_path / "r.csv"), "--config", str(tmp_path / "r.cfg")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --preset balanced needs --companies and --company-size\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("args, named", [
        (["--preset", "desk", "--class-year", "2024"], "--preset desk does not read --class-year"),
        (["--preset", "desk", "--companies", "6"], "--preset desk does not read --companies"),
        (["--preset", "reference", "--company-size", "5"],
         "--preset reference does not read --company-size"),
        (["--preset", "balanced", "--companies", "6", "--company-size", "14",
          "--class-year", "2024"], "--preset balanced does not read --class-year"),
        (["--preset", "desk", "--spec", "x.cfg"], "unrecognized arguments: --spec x.cfg"),
        (["--preset", "desk", "--battalions", "2"], "unrecognized arguments: --battalions 2"),
        (["--preset", "desk", "--bare"], "unrecognized arguments: --bare"),
        (["--seed", "1"], "the following arguments are required: --preset"),
    ])
    def test_a_flag_the_preset_does_not_read_is_a_usage_error(self, args, named, tmp_path,
                                                              capsys):
        rc = cli.main(["generate", *args,
                       "--roster", str(tmp_path / "r.csv"), "--config", str(tmp_path / "r.cfg")])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_a_company_size_below_1_is_an_input_error(self, size, tmp_path, capsys):
        rc = cli.main(["generate", "--preset", "balanced", "--companies", "6",
                       "--company-size", size,
                       "--roster", str(tmp_path / "r.csv"), "--config", str(tmp_path / "r.cfg")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: every company needs at least 1 student, not {size}\n")
        assert list(tmp_path.iterdir()) == []


class TestConfigInput:
    def test_battalions_default_to_the_csv_column(self, tmp_path):
        roster, config = tmp_path / "roster.csv", tmp_path / "roster.cfg"
        fileio.write_roster(generate(desk_spec(num_battalions=2), 7), roster, config)
        original = fileio.read_roster(roster, config)
        assert len(original.battalions) == 2
        _edit_config(config, battalions=None)
        assert fileio.read_roster(roster, config) == original

    @pytest.mark.parametrize("rows, with_line", [("all", True), ("first", True),
                                                 ("first", False)])
    def test_a_battalion_cell_that_contradicts_the_layout_is_an_input_error(
            self, rows, with_line, tmp_path, capsys):
        """A 2-battalion roster with every student's cell swapped between 1
        and 2 contradicts its battalions line; with only the first student's
        cell set to 2, the first student of company 1 contradicts the line,
        or without it the seven other students of company 1."""
        roster, config = tmp_path / "roster.csv", tmp_path / "roster.cfg"
        fileio.write_roster(generate(desk_spec(num_battalions=2), 7), roster, config)
        lines = roster.read_text().splitlines()
        col = fileio.ROSTER_FIELDS.index("battalion")
        for i in range(1, len(lines) if rows == "all" else 2):
            cells = lines[i].split(",")
            cells[col] = "2" if cells[col] == "1" else "1"
            lines[i] = ",".join(cells)
        roster.write_text("\n".join(lines) + "\n")
        if not with_line:
            _edit_config(config, battalions=None)
        message = f"{roster}:2: battalion 2 contradicts battalion 1 of company 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            fileio.read_roster(roster, config)
        capsys.readouterr()
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_company_without_students_needs_a_battalions_line(self, tmp_path):
        roster, config = _generate(tmp_path, "--preset", "desk", "--seed", "7")
        _edit_config(config, battalions=None, num_companies=9)
        with pytest.raises(ValueError, match="some companies have no students; "
                                             "add a 'battalions' line to the config"):
            fileio.read_roster(roster, config)
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 1

    def test_a_company_past_num_companies_is_an_unknown_company(self, tmp_path, capsys):
        roster, config = _generate(tmp_path, "--preset", "desk", "--seed", "7")
        _edit_config(config, battalions=None, num_companies=7)
        args = ["--roster", str(roster), "--config", str(config)]
        capsys.readouterr()
        assert cli.main(["validate", *args]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"invalid: student 's{i:04d}' references company index 7" for i in range(57, 65)]
        assert cli.main(["solve", *args, "--variant", "pairs"]) == 1
        assert "error: invalid roster: student 's0057'" in capsys.readouterr().err

    def test_a_window_key_nothing_reads_is_rejected(self, tmp_path, capsys):
        roster, config = _generate(tmp_path, "--preset", "desk", "--seed", "7")
        config.write_text(config.read_text() + "max_number_taskforce = 0\n"
                          "max_avg_score_gpa = 1\nmax_gender_nonbinary = 0\n")
        args = ["--roster", str(roster), "--config", str(config)]
        capsys.readouterr()
        assert cli.main(["validate", *args]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "invalid: max_number[taskforce] names no known key: all, task_force, prior_service",
            "invalid: max_avg_score[gpa] names no known key: aom, mom, prt",
            "invalid: max_gender[nonbinary] names no known key: male, female",
        ]
        assert cli.main(["solve", *args, "--variant", "min"]) == 1
        assert "error: invalid roster: max_number[taskforce] names" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["max_numbr_all = 0", "num_intls = 5", "min_athlete_crew = 1"])
    def test_a_key_no_rule_names_is_an_input_error(self, line, tmp_path, capsys):
        roster, config = _generate(tmp_path, "--preset", "desk", "--seed", "7")
        config.write_text(config.read_text() + line + "\n")
        message = f"{config}: unknown config key {line.split(' =')[0]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fileio.read_roster(roster, config)
        capsys.readouterr()
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_header_mismatch(self, desk_files):
        roster, config = desk_files
        lines = roster.read_text().splitlines(keepends=True)
        roster.write_text(lines[0].replace("prt", "pt") + "".join(lines[1:]))
        with pytest.raises(ValueError, match=re.escape(
                f"{roster}: expected header {','.join(fileio.ROSTER_FIELDS)}")):
            fileio.read_roster(roster, config)

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_row_without_one_cell_per_column(self, edit, desk_files, capsys):
        roster, config = desk_files
        lines = roster.read_text().splitlines()
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:3] if edit == "short" else cells + ["1"])
        roster.write_text("\n".join(lines) + "\n")
        message = f"{roster}:4: expected {len(fileio.ROSTER_FIELDS)} cells, one per header column"
        with pytest.raises(ValueError, match=re.escape(message)):
            fileio.read_roster(roster, config)
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["aom", "mom", "old_company", "battalion"])
    def test_a_cell_that_is_no_number_names_its_line(self, column, desk_files, capsys):
        roster, config = desk_files
        lines = roster.read_text().splitlines()
        cells = lines[1].split(",")
        cells[fileio.ROSTER_FIELDS.index(column)] = "abc"
        lines[1] = ",".join(cells)
        roster.write_text("\n".join(lines) + "\n")
        kind = "a number" if column in ("aom", "mom") else "an integer"
        message = f"{roster}:2: {column} cell 'abc' is not {kind}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fileio.read_roster(roster, config)
        assert cli.main(["validate", "--roster", str(roster), "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["report"], ["certify", "--variant", "dev"],
                                         ["certify", "--variant", "pairs"],
                                         ["export-lp", "--variant", "min"],
                                         ["export-lp", "--variant", "dev"]],
                             ids=["report", "certify-dev", "certify-pairs", "export-lp-min",
                                  "export-lp-dev"])
    def test_an_invalid_roster_is_refused_as_solve_refuses_it(self, command, cell, tmp_path,
                                                               capsys):
        """A score that reads as a number but is not finite passes the reader;
        every command that reads the roster's scores then refuses it with
        solve's message and exit 1, and writes nothing."""
        roster, config = _generate(tmp_path, "--preset", "desk", "--seed", "7")
        result = tmp_path / "result.csv"
        valid = fileio.read_roster(roster, config)
        fileio.write_assignment(result, valid, {s.id: s.old_company for s in valid.students})
        lines = roster.read_text().splitlines()
        cells = lines[1].split(",")
        cells[fileio.ROSTER_FIELDS.index("aom")] = cell
        lines[1] = ",".join(cells)
        roster.write_text("\n".join(lines) + "\n")
        args = ["--roster", str(roster), "--config", str(config)]
        if command[0] == "certify":
            args += ["--result", str(result)]
        else:
            args += ["--out", str(tmp_path / "out.txt")]
        written = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert cli.main(["solve", *args[:4], "--variant", "dev"]) == 1
        refused = capsys.readouterr().err
        assert refused.startswith(
            f"error: invalid roster: student 's0001' has non-finite or negative aom score {cell}")
        assert cli.main([*command, *args]) == 1
        assert capsys.readouterr().err == refused
        assert sorted(tmp_path.iterdir()) == written

    def test_malformed_line(self, desk_files):
        roster, config = desk_files
        config.write_text(config.read_text() + "conflict_pair s0001,s0002\n")
        lineno = len(config.read_text().splitlines())
        with pytest.raises(ValueError, match=re.escape(
                f"{config}:{lineno}: expected 'key = value', got 'conflict_pair s0001,s0002'")):
            fileio.read_roster(roster, config)

    @pytest.mark.parametrize("key", ["num_companies", "min_number_all", "max_athlete_crew",
                                     "max_race_white"])
    def test_repeated_key(self, key, desk_files):
        roster, config = desk_files
        config.write_text(config.read_text() + f"{key} = 3\n{key} = 3\n")
        with pytest.raises(ValueError, match=f"config key '{key}' given more than once"):
            fileio.read_roster(roster, config)

    def test_every_tolerance_round_trips(self, tmp_path):
        tol = Tolerances(
            count_min={"all": 1, "task_force": 0}, count_max={"all": 3, "prior_service": 2},
            merit_min={"aom": 450.5, "prt": 80.0}, merit_max={"mom": 600.25},
            gender_min={"female": 0.125}, gender_max={"male": 0.875},
            race_min={"other": 0.1}, race_max={"white": 0.9},
            sport_max={"crew": 1}, min_sapr=1, num_intl=0,
            sapr_companies=frozenset({0}), intl_companies=frozenset({1}))
        original = Roster(
            students=(mk_student(0, 0, is_task_force=True, is_international=True),
                      mk_student(1, 1, aom=612.5, gender="female", race="other",
                                 is_prior_service=True, battalion_locked=True,
                                 sports=frozenset({"crew", "golf"}))),
            num_companies=2, battalions=((0, 1),), conflict_pairs=(("s00", "s01"),),
            tolerances=tol)
        fileio.write_roster(original, tmp_path / "r.csv", tmp_path / "r.cfg")
        assert fileio.read_roster(tmp_path / "r.csv", tmp_path / "r.cfg") == original

    def test_validate_lists_window_defects_in_order(self, tmp_path, capsys):
        tol = Tolerances(count_min={"all": 9}, count_max={"all": 7},
                         merit_min={"aom": 400.0}, merit_max={"aom": 600.0},
                         gender_min={"female": 1.25}, gender_max={"male": 1.5},
                         race_min={"white": 0.8}, race_max={"white": 0.6})
        roster = Roster(students=(mk_student(0, 0), mk_student(1, 1)), num_companies=2,
                        battalions=((0, 1),), tolerances=tol)
        fileio.write_roster(roster, tmp_path / "r.csv", tmp_path / "r.cfg")
        capsys.readouterr()
        assert cli.main(["validate", "--roster", str(tmp_path / "r.csv"),
                         "--config", str(tmp_path / "r.cfg")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "invalid: min_number[all] = 9 exceeds max_number[all] = 7",
            "invalid: min_race[white] = 0.8 exceeds max_race[white] = 0.6",
            "invalid: min_gender[female] = 1.25 is outside [0, 1]",
            "invalid: max_gender[male] = 1.5 is outside [0, 1]",
        ]
