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

    def test_generator_spec_file_matches_the_preset(self, tmp_path):
        spec_file = tmp_path / "gen.cfg"
        spec_file.write_text(
            "# desk-sized generator spec\n"
            "num_companies = 8\nnum_battalions = 1\ncompany_size = 8\n"
            "num_conflict_pairs = 4\n"
            "sports = football, basketball, soccer, lacrosse\n")
        spec = fileio.genspec_from_config(spec_file)
        assert spec == desk_spec()
        assert generate(spec, seed=11) == generate(desk_spec(), seed=11)

    def test_generator_spec_metric_overrides(self, tmp_path):
        spec_file = tmp_path / "gen.cfg"
        spec_file.write_text("aom_mean = 600\naom_lo = 500\nbare = 1\n")
        spec = fileio.genspec_from_config(spec_file)
        assert spec.aom.mean == 600.0
        assert spec.aom.lo == 500.0
        assert spec.aom.hi == desk_spec().aom.hi  # untouched fields keep defaults
        assert spec.bare is True


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

    def test_solve_infeasible_exits_2(self, tmp_path):
        # a locked student in a single-company battalion cannot move anywhere
        students = (mk_student(0, 0, battalion_locked=True), mk_student(1, 1))
        r = Roster(students=students, num_companies=2, battalions=((0,), (1,)))
        fileio.write_roster(r, tmp_path / "r.csv", tmp_path / "r.cfg")
        rc = cli.main(["solve", "--roster", str(tmp_path / "r.csv"),
                       "--config", str(tmp_path / "r.cfg"), "--variant", "dev"])
        assert rc == 2

    def test_solve_out_of_budget_exits_3(self, desk_files):
        roster, config = desk_files
        rc = cli.main(["solve", "--roster", str(roster), "--config", str(config),
                       "--variant", "dev", "--time-limit", "0", "--warm", "none"])
        assert rc == 3

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

    def test_workers_env_fallback(self, desk_files, monkeypatch, tmp_path):
        roster, config = desk_files
        monkeypatch.setenv("COHORT_SHUFFLE_THREADS", "2")
        out = tmp_path / "env.csv"
        rc = cli.main(["solve", "--roster", str(roster), "--config", str(config),
                       "--variant", "min", "--out", str(out)])
        assert rc == 0
        assert fileio.read_meta(tmp_path / "env.csv.meta.json")["workers"] == 2


#: sha256 of each artifact of the README walkthrough roster (desk seed 7),
#: pinned across commits: a change that moves a solve's status, bound,
#: gap, node count or LP iterations changes one of them.  Each case is
#: (solve arguments, exit code, stdout, assignment CSV, ``.meta.json``).
WALKTHROUGH_SHA256 = {
    "pairs": (["--variant", "pairs"], 0,
              "32d183f09feda9c3239547410ee9ac193a7ec2a828ace4b97565ab3303d1b625",
              "92f58358e62b0f85aa46a0bd1511577756793390b20a4abef5ee9b26af0a3b33",
              "a09f7cecef9eedae87d1ba2c64e04ea098bb4a33c15eea67d210e875b021dd04"),
    "min": (["--variant", "min"], 0,
            "1f42fddd061178183f221197b79266da889e8817d0bd9bbd2c9fee53d067770d",
            "72f2a0a590e194775fc0deda519adbaf1f005c5a7ed23a8fe55443bc1f05fecd",
            "19c3034ca3fb18ec2e292c78993d6244fa6c96b1352cb0feb9eb193a2ab37179"),
    "dev-nodes-2": (["--variant", "dev", "--node-limit", "2"], 3,
                    "60bedd00a8b9315f940fdb4a97c4ed660f3ac013ada56b5ff4d21e6fadd78bf9",
                    "27246ca5d2da858580ade592fda4466ecaafb2c38f5387e5bc601b3b6cf5eab8",
                    "b19e7b3d116ea8c9aec91674155eec2958392ff7d25ecb751c89ef87fafaeabb"),
    "dev-no-time": (["--variant", "dev", "--time-limit", "0", "--warm", "none"], 3,
                    "d9f4a5e6ac380ea85924aea907cf7d9f86132a07f060bae40dc3278d1a26dedd",
                    None, None),
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
        if csv_sha is None:
            assert not out.exists() and not meta.exists()
        else:
            assert _sha(out.read_bytes()) == csv_sha
            assert _sha(meta.read_bytes()) == meta_sha, meta.read_text()

    def test_readme_shows_the_pairs_stdout(self, walkthrough_files, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        shown = re.search(r"--variant pairs --out new\.csv\n```\n\n```\n(.*?)```",
                          readme, re.S)
        assert shown is not None
        _, stdout = self._solve(walkthrough_files, ["--variant", "pairs"],
                                tmp_path / "new.csv", capsys)
        assert stdout == shown.group(1)
