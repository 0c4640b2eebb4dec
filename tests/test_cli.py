"""End-to-end tests of the command-line interface and config files."""

import json
import math
from pathlib import Path

import pytest

from szwalk import cli, walks
from szwalk.cli import ConfigError, load_config, main, run_config
from szwalk.walks import integer_shift

LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "golden"


def write_config(path, **overrides):
    config = {
        "walk": {"kind": "hadamard", "N": 5},
        "power": 2,
        "instrument": {"kind": "rank2_position"},
        "state": {"kind": "maximally_mixed"},
        "partition": {"kind": "atomic"},
        "run": {"n_max": 25, "classify": True},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


KINDS = {"walk": "'hadamard' or 'explicit'",
         "instrument": "'coherent', 'rank2_position' or 'explicit_kraus'",
         "state": "'maximally_mixed', 'eigenstate' or 'explicit'",
         "partition": "'atomic', 'vertex_blocks' or 'explicit'"}
EYE6 = [[int(r == c) for c in range(6)] for r in range(6)]
SECTION_ERRORS = [
    *[case for section, kinds in KINDS.items() for case in [
        ({section: {"kind": "bogus"}}, f"field '{section}.kind' must be {kinds}, got 'bogus'"),
        ({section: {"kind": ["a"]}}, f"field '{section}.kind' must be {kinds}, got ['a']"),
        ({section: None}, f"missing field 'config.{section}'"),
        ({section: [1]}, f"field '{section}' must be an object"),
        ({section: {"N": 5}}, f"missing field '{section}.kind'"),
    ]],
    ({"instrument": {"kind": "explicit_kraus", "kraus": [EYE6]}},
     "instrument dimension 6 does not match walk dimension 10"),
    ({"state": {"kind": "explicit", "matrix": [[1, 0], [0, 0]]}},
     "state dimension 2 does not match walk dimension 10"),
]


class TestConfigParsing:
    @pytest.mark.parametrize("override, message", SECTION_ERRORS)
    def test_section_error_message(self, tmp_path, capsys, override, message):
        """Every section reports a bad kind, a missing or non-object section and a missing kind
        in the same words; None removes the section."""
        config = json.loads(write_config(tmp_path / "base.json").read_text())
        config.update(override)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_walk_n(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"walk": {"kind": "hadamard"},
                                   "instrument": {"kind": "coherent"},
                                   "state": {"kind": "maximally_mixed"},
                                   "partition": {"kind": "atomic"}}))
        with pytest.raises(ConfigError, match="walk.N"):
            load_config(cfg)

    @pytest.mark.parametrize("walk, field", [
        ({"kind": "hadamard", "N": 10 ** 30}, "walk.N"),
        ({"kind": "hadamard", "N": walks.MAX_DIM // 2 + 1}, "walk.N"),
        ({"kind": "explicit", "vertices": 10 ** 30, "sigma": [], "coins": []}, "walk.vertices"),
        ({"kind": "explicit", "vertices": walks.MAX_DIM, "coin_count": 2, "sigma": [],
          "coins": []}, "walk.vertices"),
    ])
    def test_walk_over_the_dimension_budget_exits_2(self, tmp_path, capsys, walk, field):
        cfg = write_config(tmp_path / "huge.json", walk=walk)
        assert main(["run", str(cfg)]) == 2
        assert f"field '{field}' gives a walk of dimension" in capsys.readouterr().err

    def test_walk_at_the_dimension_budget_is_accepted(self):
        walk = cli._section({"walk": {"kind": "hadamard", "N": walks.MAX_DIM // 2}}, "walk")
        assert walk.dim == walks.MAX_DIM

    @pytest.mark.parametrize("vertices", [60, 200])
    @pytest.mark.parametrize("section, kind", [("instrument", "coherent"),
                                               ("instrument", "rank2_position"),
                                               ("state", "eigenstate")])
    def test_cycle_walk_kinds_need_two_coins(self, tmp_path, capsys, monkeypatch, vertices,
                                             section, kind):
        """These kinds are built from the vertex count of a two-coin walk: a one-coin walk
        exits 2 naming `walk.coin_count` before any of them is built (at 200 vertices, a
        position instrument would be over the dimension budget)."""
        built = []
        for name in ("coin_vertex_instrument", "position_instrument", "hadamard_eigenstate"):
            monkeypatch.setattr(walks, name, lambda *a, name=name: built.append(name))
        eye = [[int(r == c) for c in range(vertices)] for r in range(vertices)]
        overrides = {"walk": {"kind": "explicit", "vertices": vertices, "coin_count": 1,
                              "sigma": [(v + 1) % vertices for v in range(vertices)],
                              "coins": [[[1]]] * vertices},
                     "instrument": {"kind": "explicit_kraus", "kraus": [eye]},
                     section: {"kind": kind}}
        cfg = write_config(tmp_path / "one_coin.json", **overrides)
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"error: '{section}.kind' {kind} needs a walk with 2 "
                                           "coins per vertex, got field 'walk.coin_count' 1\n")
        assert built == []

    def test_invalid_json_names_line(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\n  \"walk\": ,\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(cfg)

    @pytest.mark.parametrize("run, field", [
        ({"merge_tol": 0}, "merge_tol"),  # every branch would share one merge bucket
        ({"merge": "false"}, "merge"),
        ({"classify": "no"}, "classify"),
        ({"window": 2.9}, "window"),
        ({"n_max": -3}, "n_max"),
        ({"window": 1}, "window"),  # a_1 = a_2 here would pass as converged
        ({"merge_tol": 1e999}, "merge_tol"),  # JSON reads inf: every block would merge
        ({"merge_tol": 1e-20}, "merge_tol"),  # the int64 merge keys would overflow
    ])
    def test_bad_run_option_exits_2(self, tmp_path, capsys, run, field):
        cfg = write_config(tmp_path / "bad.json", run={"n_max": 25, **run})
        assert main(["run", str(cfg)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, field", [
        ("walk", "vertices", 3.7, "walk.vertices"),
        ("walk", "vertices", "3", "walk.vertices"),
        ("walk", "coin_count", 2.2, "walk.coin_count"),
        ("walk", "sigma", [1.9, 2, 0, 5, 3, 4], "walk.sigma"),
        (None, "walk", 5, "walk"),
        ("walk", "coins", 5, "walk.coins"),
        ("instrument", "kraus", 5, "instrument.kraus"),
        ("partition", "blocks", 5, "partition.blocks"),
        ("partition", "labels", 7, "partition.labels"),
        ("partition", "blocks", [[0.2], [1], [2]], "partition.blocks"),
        ("partition", "blocks", [["0"], [1], [2]], "partition.blocks"),
        ("partition", "blocks", [[False], [True], [2]], "partition.blocks"),
        ("walk", "coins", [[[True, 0], [0, True]]] * 3, "walk.coins[0][0][0]"),
        ("walk", "coins", [[[[1, False], 0], [0, 1]]] * 3, "walk.coins[0][0][0]"),
        ("instrument", "kraus", [[[True if r == c and r % 3 == v else 0 for c in range(6)]
                                  for r in range(6)] for v in range(3)],
         "instrument.kraus[0][0][0]"),
        ("walk", "coins", [[[10 ** 400, 0], [0, 1]]] * 3, "walk.coins[0][0][0]"),
    ])
    def test_bad_explicit_field_exits_2(self, tmp_path, capsys, section, key, value, field):
        N = 3
        position = [[[1 if r == c and r % N == v else 0 for c in range(2 * N)]
                     for r in range(2 * N)] for v in range(N)]
        config = {
            "walk": {"kind": "explicit", "vertices": N, "coin_count": 2,
                     "sigma": list(integer_shift(N).sigma), "coins": [[[1, 0], [0, 1]]] * N},
            "instrument": {"kind": "explicit_kraus", "kraus": position},
            "state": {"kind": "maximally_mixed"},
            "partition": {"kind": "explicit", "blocks": [[0], [1], [2]],
                          "labels": ["a", "b", "c"]},
            "run": {"n_max": 2},
        }
        (config if section is None else config[section])[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg)]) == 2
        assert f"'{field}" in capsys.readouterr().err

    def test_boolean_power_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="power"):
            load_config(write_config(tmp_path / "c.json", power=True))

    def test_unknown_run_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", run={"n_max": 5, "bogus": 1})
        with pytest.raises(ConfigError, match="run.bogus"):
            load_config(cfg)

    def test_vertex_blocks_needs_coherent(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           instrument={"kind": "rank2_position"},
                           partition={"kind": "vertex_blocks"})
        with pytest.raises(ConfigError, match="vertex_blocks"):
            load_config(cfg)

    def test_explicit_everything(self, tmp_path):
        N = 3
        shift = integer_shift(N)
        eye2 = [[1, 0], [0, 1]]
        kraus = [[[1 if (r == c == k) else 0 for c in range(2 * N)]
                  for r in range(2 * N)] for k in range(2 * N)]
        cfg = tmp_path / "explicit.json"
        cfg.write_text(json.dumps({
            "walk": {"kind": "explicit", "vertices": N, "sigma": list(shift.sigma),
                     "coins": [eye2] * N},
            "instrument": {"kind": "explicit_kraus", "kraus": kraus},
            "state": {"kind": "explicit",
                      "matrix": [[1 / (2 * N) if r == c else 0 for c in range(2 * N)]
                                 for r in range(2 * N)]},
            "partition": {"kind": "explicit", "blocks": [[v, v + N] for v in range(N)]},
            "run": {"n_max": 4},
        }))
        config = load_config(cfg)
        assert config.walk.space_homogeneous
        assert config.instrument.n_outcomes == 2 * N
        assert len(config.partition.blocks) == N

    def test_complex_entries_as_pairs(self, tmp_path):
        cfg = tmp_path / "cx.json"
        s = 1 / math.sqrt(2)
        cfg.write_text(json.dumps({
            "walk": {"kind": "explicit", "vertices": 2,
                     "sigma": list(integer_shift(2).sigma),
                     "coins": [[[[s, 0], [0, s]], [[0, s], [s, 0]]]] * 2},
            "instrument": {"kind": "coherent"},
            "state": {"kind": "maximally_mixed"},
            "partition": {"kind": "atomic"},
        }))
        config = load_config(cfg)
        assert config.walk.coins[0][0, 1] == pytest.approx(1j * s)


class TestRunCommand:
    def test_squared_rank2_run_summary(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "exp_summary.json").read_text())
        assert summary["dynamical_entropy"] == pytest.approx(4 / 3 * LN2, abs=1e-5)
        assert summary["measurement"]["value"] == 0.0
        assert summary["units"] == "nats"
        csv_text = (tmp_path / "out" / "exp_depth.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "depth,a_n,cesaro,branch_count,merged_count,pruned_mass,c_n,e_n,o_n"
        first_row = csv_text.splitlines()[1].split(",")
        assert first_row[0] == "0" and first_row[6] == "1"  # c_0 = 1

    def test_eigenstate_coherent_run(self, tmp_path):
        cfg = write_config(tmp_path / "eig.json", power=1,
                           instrument={"kind": "coherent"},
                           state={"kind": "eigenstate"},
                           run={"n_max": 8})
        record = run_config(cfg, out_dir=tmp_path / "out")
        assert record.report.dynamical_entropy == pytest.approx(LN2, abs=1e-9)

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "det.json", run={"n_max": 10, "classify": True})
        run_config(cfg, out_dir=tmp_path / "a")
        run_config(cfg, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "det_depth.csv").read_bytes()
                == (tmp_path / "b" / "det_depth.csv").read_bytes())
        sa = json.loads((tmp_path / "a" / "det_summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "det_summary.json").read_text())
        sa.pop("duration_s"), sb.pop("duration_s")
        assert sa == sb

    @pytest.mark.parametrize("stem", ["rank2_u2_classify", "rank2_u2_unmerged",
                                      "coherent_depth0", "explicit_kraus", "kraus_chunks"])
    def test_outputs_match_golden_files(self, tmp_path, stem):
        run_config(GOLDEN / f"{stem}.json", out_dir=tmp_path)
        assert ((tmp_path / f"{stem}_depth.csv").read_bytes()
                == (GOLDEN / f"{stem}_depth.csv").read_bytes())
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        del summary["duration_s"]
        assert (json.dumps(summary, indent=2, sort_keys=True) + "\n"
                == (GOLDEN / f"{stem}_summary.json").read_text())

    def test_outputs_land_next_to_config_by_default(self, tmp_path):
        cfg = write_config(tmp_path / "here.json", run={"n_max": 3})
        record = run_config(cfg)
        assert record.csv_path.parent == tmp_path

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"walk": {"kind": "hadamard"},
                                   "instrument": {"kind": "coherent"},
                                   "state": {"kind": "maximally_mixed"},
                                   "partition": {"kind": "atomic"}}))
        assert main(["run", str(cfg)]) == 2
        assert "walk.N" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_resource_budget_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "tiny.json",
                           run={"n_max": 8, "merge": False, "branch_budget": 10})
        assert main(["run", str(cfg)]) == 3
        assert "budget" in capsys.readouterr().err

    def test_accuracy_exit_code_in_strict_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "lossy.json",
                           run={"n_max": 3, "prune_eps": 0.5, "strict": True})
        assert main(["run", str(cfg)]) == 1
        assert "pruned mass" in capsys.readouterr().err

    def test_rows_strictly_increasing_in_depth(self, tmp_path):
        cfg = write_config(tmp_path / "rows.json", run={"n_max": 6})
        record = run_config(cfg, out_dir=tmp_path / "out")
        depths = [row.depth for row in record.report.records]
        assert depths == sorted(set(depths))

    def test_bits_flag_scales_display(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bits.json", power=1,
                           instrument={"kind": "coherent"},
                           partition={"kind": "vertex_blocks"},
                           run={"n_max": 8})
        assert main(["run", str(cfg), "--bits"]) == 0
        out = capsys.readouterr().out
        assert "dynamical entropy:   1 bits" in out


class TestMarkovCommand:
    def test_squared_cycle_table(self, capsys):
        assert main(["markov", "--n", "5", "--power", "2"]) == 0
        out = capsys.readouterr().out
        assert f"H(P^2) = {1.5 * LN2:.15g}" in out
        assert "converged to" in out

    def test_point_start_converges(self, capsys):
        assert main(["markov", "--n", "3", "--power", "1", "--start", "point:0"]) == 0
        out = capsys.readouterr().out
        assert f"converged to {LN2:.15g}" in out

    def test_bad_start_spec(self, capsys):
        assert main(["markov", "--n", "4", "--start", "everywhere"]) == 2

    @pytest.mark.parametrize("start", ["point:x", "point:1.0", "point:", "point:-1"])
    def test_malformed_point_start_exits_2(self, capsys, start):
        assert main(["markov", "--n", "4", "--start", start]) == 2
        assert "--start" in capsys.readouterr().err

    def test_too_small_cycle(self, capsys):
        assert main(["markov", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: cycle walk needs an integer N >= 3, got 2\n"

    def test_power_zero_rejected(self):
        assert main(["markov", "--n", "5", "--power", "0"]) == 2

    def test_cycle_length_within_the_dimension_budget(self, capsys):
        """N is checked against `walks.MAX_DIM` before the N×N matrix is allocated: one over
        the budget exits 3 with a one-line error naming it, the budget itself runs."""
        n = walks.MAX_DIM
        assert main(["markov", "--n", str(n + 1)]) == 3
        assert capsys.readouterr().err == (f"error: a cycle walk on N={n + 1} vertices has an N×N "
                                           f"transition matrix, over the dimension budget of {n}\n")
        assert main(["markov", "--n", str(n)]) == 0
        assert "converged to" in capsys.readouterr().out


class TestPaperCheck:
    def test_all_rows_pass(self, capsys):
        assert main(["paper-check"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") >= 7
        assert "7/7 rows ok" in out

    @pytest.mark.parametrize("raw, power", [(cli.RANK2, 1), (cli.RANK2, 2), (cli.COHERENT, 2)])
    def test_engine_rows_match_run_config(self, tmp_path, raw, power):
        """A paper-check engine row is `szwalk run` on its config, to the last bit."""
        cfg = tmp_path / "row.json"
        cfg.write_text(json.dumps({**raw, "power": power}))
        record = run_config(cfg, out_dir=tmp_path)
        assert record.config == {**raw, "power": power}
        assert record.report.dynamical_entropy == cli._row_sz(raw, power)

    def test_each_engine_row_is_solved_once(self, monkeypatch):
        solved = []
        solve = cli._solve
        monkeypatch.setattr(cli, "_solve", lambda config: solved.append(config.power)
                            or solve(config))
        assert main(["paper-check"]) == 0
        assert sorted(solved) == [1, 2, 2]  # coherent U^2, rank-2 U and rank-2 U^2

    def test_reference_rows_cover_both_instruments(self):
        names = [name for name, *_ in cli.REFERENCE_ROWS]
        assert len(names) == 7
        assert any("rank-2" in n for n in names)
        assert any("C_V" in n for n in names)
