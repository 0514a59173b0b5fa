"""Command-line front end: CSV schemas, units, reproducibility, exit codes."""

import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spreadmi.cli import main

LN2 = math.log(2.0)
GOLDEN = pathlib.Path(__file__).parent / "golden"


def rows_of(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestMiSweep:
    def test_fig2_style_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["mi-sweep", "--prior", "binary", "--spectrum", "mp",
                     "--spectrum", "wbe", "--beta", "1.5",
                     "--sigma2-grid", "0.1:2:20", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["spectrum", "sigma2", "E", "theta", "C", "F",
                          "n_fixed_points"]
        assert len(rows) == 40
        c_mp = {r["sigma2"]: float(r["C"]) for r in rows if r["spectrum"] == "mp"}
        c_wbe = {r["sigma2"]: float(r["C"]) for r in rows if r["spectrum"] == "wbe"}
        assert all(c_wbe[s2] >= c_mp[s2] for s2 in c_mp)

    def test_gaussian_wbe_known_value(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["mi-sweep", "--prior", "gaussian", "--spectrum", "wbe",
                     "--beta", "1.5", "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert float(rows[0]["C"]) == pytest.approx(math.log(4.0) / 3.0,
                                                    abs=1e-9)
        # 12 significant digits in the rendered value
        assert rows[0]["C"] == "0.462098120373"

    def test_bits_are_nats_over_ln2(self, tmp_path):
        nats = tmp_path / "nats.csv"
        bits = tmp_path / "bits.csv"
        base = ["mi-sweep", "--prior", "binary", "--spectrum", "wbe", "--beta",
                "1.5", "--sigma2-grid", "0.25:1:3"]
        assert main(base + ["--out", str(nats)]) == 0
        assert main(base + ["--units", "bits", "--out", str(bits)]) == 0
        _, rn = rows_of(nats)
        _, rb = rows_of(bits)
        for a, b in zip(rn, rb):
            assert float(b["C"]) == pytest.approx(float(a["C"]) / LN2, rel=1e-10,
                                                    abs=0.0)
            assert b["E"] == a["E"] and b["theta"] == a["theta"]

    def test_ebn0_axis_labelled(self, tmp_path):
        out = tmp_path / "eb.csv"
        code = main(["mi-sweep", "--prior", "binary", "--spectrum", "wbe",
                     "--beta", "1.5", "--ebn0-grid", "0:8:3", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(out)
        assert header[:3] == ["spectrum", "ebn0_db", "sigma2"]
        # sigma2 = 1/(2 * 10^(EbN0/10))
        assert float(rows[0]["sigma2"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[2]["sigma2"]) == pytest.approx(
            1.0 / (2.0 * 10.0 ** 0.8), rel=1e-10, abs=0.0)

    def test_byte_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["mi-sweep", "--prior", "binary", "--spectrum", "mp", "--beta",
                "1.5", "--sigma2-grid", "0.2:1:4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            'prior = "binary"\n'
            'spectrum = ["wbe"]\n'
            "beta = 1.5\n"
            'sigma2_grid = "0.5"\n'
            'units = "nats"\n')
        out = tmp_path / "c.csv"
        code = main(["mi-sweep", "--config", str(cfg), "--units", "bits",
                     "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        # the bits flag overrides the nats in the file
        nats_value = 0.45075083582577746
        assert float(rows[0]["C"]) == pytest.approx(nats_value / LN2, rel=1e-8,
                                                    abs=0.0)

    def test_missing_grid_is_config_error(self, tmp_path):
        code = main(["mi-sweep", "--prior", "binary", "--spectrum", "wbe",
                     "--beta", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_prior_is_config_error(self, tmp_path):
        code = main(["mi-sweep", "--prior", "trinary", "--spectrum", "wbe",
                     "--beta", "1.5", "--sigma2-grid", "0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_spectrum_file(self, tmp_path):
        spec_file = tmp_path / "two_atom.spectrum"
        spec_file.write_text(
            'kind = "discrete"\n'
            "beta = 1.5\n"
            "pi_atoms = [[0.5, 0.5], [2.5, 0.5]]\n")
        out = tmp_path / "s.csv"
        code = main(["mi-sweep", "--prior", "binary", "--spectrum",
                     str(spec_file), "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["spectrum"] == "two_atom"

    def test_spectrum_file_carries_its_own_beta(self, tmp_path):
        spec_file = tmp_path / "mp2.spectrum"
        spec_file.write_text('kind = "mp"\nbeta = 2.0\n')
        out = tmp_path / "s.csv"
        code = main(["mi-sweep", "--prior", "gaussian", "--spectrum",
                     str(spec_file), "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0]["spectrum"] == "mp2"

    def test_inline_discrete_prior_normalized_on_load(self, tmp_path):
        out = tmp_path / "d.csv"
        # a shifted, unnormalized alphabet; the loader standardizes it, so a
        # symmetric shape reproduces the binary result
        code = main(["mi-sweep", "--prior", "discrete:[[0,0.5],[10,0.5]]",
                     "--spectrum", "wbe", "--beta", "1.5",
                     "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert float(rows[0]["C"]) == pytest.approx(0.45075083582577746,
                                                    abs=1e-8)

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_extreme_scale_alphabet_writes_binary_c(self, tmp_path, scale):
        # the loader's variance neither overflows nor underflows
        cells = []
        for prior in ("binary", f"discrete:[[-{scale},0.5],[{scale},0.5]]"):
            out = tmp_path / "x.csv"
            code = main(["mi-sweep", "--prior", prior, "--spectrum", "wbe",
                         "--beta", "1.5", "--sigma2-grid", "0.5",
                         "--out", str(out)])
            assert code == 0
            cells.append(rows_of(out)[1][0]["C"])
        assert cells[0] == cells[1]

    @pytest.mark.parametrize("prior, spectra, entropy", [
        pytest.param("discrete:[[0,0.01],[1000,0.98],[100000,0.01]]", ["mp", "wbe"],
                     -(0.98 * math.log(0.98) + 0.02 * math.log(0.01)), id="wide"),
        pytest.param("discrete:" + str([[2 * i - 63, 1] for i in range(64)]),
                     ["wbe"], math.log(64.0), id="64pam"),
    ])
    def test_separated_alphabet_saturates_at_input_entropy(self, tmp_path, prior,
                                                           spectra, entropy):
        # at sigma2 1e-6 adjacent components are >= 54 noise widths apart,
        # so C is the input entropy
        out = tmp_path / "sep.csv"
        args = ["mi-sweep", "--prior", prior, "--beta", "1.5",
                "--sigma2-grid", "1e-6", "--out", str(out)]
        for name in spectra:
            args += ["--spectrum", name]
        assert main(args) == 0
        _, rows = rows_of(out)
        assert [r["spectrum"] for r in rows] == spectra
        for r in rows:
            assert float(r["C"]) == pytest.approx(entropy, abs=1e-9)

    def test_single_point_alphabet_rejected(self, tmp_path):
        code = main(["mi-sweep", "--prior", "discrete:[[3,1.0]]",
                     "--spectrum", "wbe", "--beta", "1.5",
                     "--sigma2-grid", "0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_solver_failure_names_grid_point(self, tmp_path, monkeypatch, capsys):
        from spreadmi import NumericsError
        import spreadmi.cli as cli_mod

        def explode(spec):
            raise NumericsError("forced failure")

        monkeypatch.setattr(cli_mod, "solve_saddle", explode)
        code = main(["mi-sweep", "--prior", "binary", "--spectrum", "wbe",
                     "--beta", "1.5", "--sigma2-grid", "0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "spectrum=wbe" in err and "sigma2=0.5" in err


class TestVerifyOptimality:
    def test_sampled_candidates_pass(self, tmp_path):
        out = tmp_path / "opt"
        code = main(["verify-optimality", "--beta", "1.5", "--candidates", "3",
                     "--seed", "1", "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(tmp_path / "opt_mi.csv")
        assert header == ["candidate", "sigma2", "candidate_C", "wbe_C", "margin"]
        assert len(rows) == 3
        assert all(float(r["margin"]) >= -1e-9 for r in rows)
        assert (tmp_path / "opt_r_dominance.csv").exists()
        assert (tmp_path / "opt_hilbert_dominance.csv").exists()

    def test_zero_candidates_empty_report(self, tmp_path):
        out = tmp_path / "opt"
        code = main(["verify-optimality", "--beta", "1.5", "--candidates", "0",
                     "--sigma2-grid", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(tmp_path / "opt_mi.csv")
        assert rows == []

    def test_bits_are_nats_over_ln2(self, tmp_path):
        args = ["verify-optimality", "--beta", "1.5", "--candidates", "2",
                "--sigma2-grid", "0.5"]
        assert main(args + ["--out", str(tmp_path / "nats")]) == 0
        assert main(args + ["--units", "bits", "--out", str(tmp_path / "bits")]) == 0
        _, rn = rows_of(tmp_path / "nats_mi.csv")
        _, rb = rows_of(tmp_path / "bits_mi.csv")
        for a, b in zip(rn, rb):
            for col in ("candidate_C", "wbe_C", "margin"):
                assert float(b[col]) == pytest.approx(float(a[col]) / LN2,
                                                      rel=1e-10, abs=1e-15)
        assert ((tmp_path / "bits_r_dominance.csv").read_bytes()
                == (tmp_path / "nats_r_dominance.csv").read_bytes())

    def test_wbe_candidate_has_zero_margins(self, tmp_path):
        out = tmp_path / "opt"
        code = main(["verify-optimality", "--beta", "1.5", "--candidates", "0",
                     "--candidate", "wbe", "--sigma2-grid", "0.5",
                     "--out", str(out)])
        assert code == 0
        _, rows = rows_of(tmp_path / "opt_mi.csv")
        assert len(rows) == 1
        assert abs(float(rows[0]["margin"])) <= 1e-10

    def test_solver_failure_names_candidate(self, tmp_path, monkeypatch, capsys):
        from spreadmi import NumericsError
        import spreadmi.cli as cli_mod

        def explode(spec):
            raise NumericsError("forced failure")

        monkeypatch.setattr(cli_mod, "r_dominance", explode)
        code = main(["verify-optimality", "--beta", "1.5", "--candidates", "2",
                     "--seed", "1", "--sigma2-grid", "0.5",
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "spectrum=sampled-1 sigma2=0.5" in err and "forced failure" in err


class TestSimulate:
    def test_columns_and_gap(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--K", "6", "--L", "4", "--prior", "binary",
                     "--sigma2-grid", "0.5", "--n-samples", "2000",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["K", "L", "kind", "sigma2", "mi", "stderr",
                          "n_samples", "seed", "replica_C", "gap"]
        assert {r["kind"] for r in rows} == {"iid", "wbe"}
        for r in rows:
            gap = ((float(r["mi"]) - float(r["replica_C"]))
                   / float(r["replica_C"]))
            assert float(r["gap"]) == pytest.approx(gap, abs=1e-10)

    def test_single_user_matches_scalar_channel(self, tmp_path):
        out = tmp_path / "sim1.csv"
        code = main(["simulate", "--K", "1", "--L", "1", "--kind", "iid",
                     "--prior", "binary", "--sigma2-grid", "1",
                     "--n-samples", "20000", "--seed", "11", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        from spreadmi import binary_prior, scalar_mutual_information
        oracle = scalar_mutual_information(binary_prior(), 1.0)
        assert abs(float(rows[0]["mi"]) - oracle) <= 3 * float(rows[0]["stderr"])

    def test_byte_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--K", "4", "--L", "2", "--prior", "binary",
                "--sigma2-grid", "0.5:1:2", "--n-samples", "1500", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reproduces_golden_csv(self, tmp_path):
        """The committed CSV of a binary K = 12 run, whose lowest level
        takes the guarded split K_A = 1, is reproduced byte for byte."""
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--K", "12", "--L", "8", "--prior", "binary",
                     "--sigma2-grid", "0.02:1:3", "--n-samples", "2000",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "simulate.csv").read_bytes()

    def test_solver_failure_names_kind(self, tmp_path, monkeypatch, capsys):
        from spreadmi import NumericsError
        import spreadmi.cli as cli_mod

        def explode(spec):
            raise NumericsError("forced failure")

        monkeypatch.setattr(cli_mod, "mutual_information", explode)
        code = main(["simulate", "--K", "4", "--L", "2", "--kind", "wbe",
                     "--prior", "binary", "--sigma2-grid", "0.5",
                     "--n-samples", "1000", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "kind=wbe sigma2=0.5" in err and "forced failure" in err

    def test_enumeration_bound_exit_code(self, tmp_path):
        code = main(["simulate", "--K", "24", "--L", "16", "--kind", "iid",
                     "--prior", "binary", "--sigma2-grid", "0.5",
                     "--n-samples", "1000", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_wbe_needs_overload(self, tmp_path):
        code = main(["simulate", "--K", "4", "--L", "4", "--kind", "wbe",
                     "--prior", "binary", "--sigma2-grid", "0.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_matrix_dump(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--K", "3", "--L", "2", "--kind", "wbe",
                     "--prior", "binary", "--sigma2-grid", "0.5",
                     "--n-samples", "1000", "--seed", "2", "--out", str(out),
                     "--dump-matrix-dir", str(tmp_path)])
        assert code == 0
        from spreadmi import read_matrix
        mat = read_matrix(tmp_path / "matrix_wbe_K3_L2.txt")
        assert mat.K == 3 and mat.L == 2 and mat.seed == 2


class TestTransform:
    def test_table_satisfies_defining_relation(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["transform", "--spectrum", "wbe", "--beta", "1.5",
                     "--z-grid=-5:-0.001:40", "--out", str(out)])
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["spectrum", "z", "R", "G", "gamma", "hilbert"]
        for r in rows:
            assert float(r["hilbert"]) == pytest.approx(float(r["z"]),
                                                        rel=1e-8, abs=1e-10)
            assert float(r["R"]) > 0.0
            assert float(r["G"]) <= 0.0

    def test_rejects_nonnegative_grid(self, tmp_path):
        code = main(["transform", "--spectrum", "wbe", "--beta", "1.5",
                     "--z-grid", "0.5:1:3", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_rejects_grid_below_z_min(self, tmp_path, capsys):
        # MP at beta 0.5 has z_min ~= -4.83; its closed-form R continues
        # below, where the hilbert column would no longer reproduce z
        code = main(["transform", "--spectrum", "mp", "--beta", "0.5",
                     "--z-grid=-50:-0.001:10", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "z_min" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_just_above_closed_form_z_min(self, tmp_path):
        # MP at beta 0.9: z_min = -1/(sqrt(beta) (1 - sqrt(beta))) = -20.5409
        code = main(["transform", "--spectrum", "mp", "--beta", "0.9",
                     "--z-grid=-20.535:-20.53:2", "--out", str(tmp_path / "t.csv")])
        assert code == 0

    def test_grid_below_closed_form_z_min_names_it(self, tmp_path, capsys):
        root = math.sqrt(0.9)
        closed = -1.0 / (root * (1.0 - root))
        code = main(["transform", "--spectrum", "mp", "--beta", "0.9",
                     "--z-grid=-20.545:-20.541:2", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        named = float(err.split("(z_min, 0) = (")[1].split(",")[0])
        assert named == pytest.approx(closed, rel=1e-10, abs=0.0)

    def test_grid_above_z_min_satisfies_defining_relation(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["transform", "--spectrum", "mp", "--beta", "0.5",
                     "--z-grid=-4.5:-0.001:4", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 4
        for r in rows:
            assert float(r["hilbert"]) == pytest.approx(float(r["z"]),
                                                        rel=0.0, abs=1e-8)

    @pytest.mark.parametrize("beta, grid", [
        pytest.param("0.9", "-20.54:-20:50", id="beta0.9-edge"),
        pytest.param("1", "-1e5:-1:50", id="beta1-unbounded"),
    ])
    def test_mp_near_its_edge_satisfies_defining_relation(self, tmp_path, beta,
                                                          grid):
        # the closed-form hilbert column stays exact as gamma nears the
        # support edge, where a quadrature of the density would drift
        out = tmp_path / "t.csv"
        code = main(["transform", "--spectrum", "mp", "--beta", beta,
                     f"--z-grid={grid}", "--out", str(out)])
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 50
        for r in rows:
            assert float(r["hilbert"]) == pytest.approx(float(r["z"]),
                                                        rel=1e-8, abs=0.0)


class TestExitCodes:
    """Every out-of-domain input exits 2 with one ``error:`` line; exit 1
    only ever means a counterexample."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5",
                      "--sigma2-grid", "-1"], id="mi-sweep-sigma2"),
        pytest.param(["verify-optimality", "--candidates", "1",
                      "--sigma2-grid", "-0.5"], id="verify-sigma2"),
        pytest.param(["simulate", "--K", "4", "--L", "2", "--sigma2-grid", "0"],
                     id="simulate-sigma2"),
        pytest.param(["simulate", "--K", "4", "--L", "2", "--n-samples", "10"],
                     id="simulate-n-samples"),
        pytest.param(["simulate", "--L", "2"], id="simulate-missing-K"),
        # non-finite grid points: no NaN rows, no numpy warning first
        pytest.param(["transform", "--spectrum", "wbe", "--beta", "1.5",
                      "--z-grid", "nan"], id="transform-z-nan"),
        pytest.param(["transform", "--spectrum", "wbe", "--beta", "1.5",
                      "--z-grid=nan:-1:3"], id="transform-z-nan-grid"),
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5",
                      "--ebn0-grid=-inf"], id="mi-sweep-ebn0-minus-inf"),
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5",
                      "--ebn0-grid", "1e10"], id="mi-sweep-ebn0-overflow"),
        # non-finite prior alphabets: NaN slips past every comparison
        pytest.param(["mi-sweep", "--prior", "discrete:[[-1, NaN], [1, 0.5]]",
                      "--spectrum", "wbe", "--beta", "1.5",
                      "--sigma2-grid", "0.5"], id="mi-sweep-prior-nan"),
        pytest.param(["mi-sweep", "--prior",
                      "discrete:[[-1, 0.5], [Infinity, 0.5]]",
                      "--spectrum", "wbe", "--beta", "1.5",
                      "--sigma2-grid", "0.5"], id="mi-sweep-prior-infinity"),
    ])
    def test_out_of_domain_input_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5"],
                     id="mi-sweep"),
        pytest.param(["simulate", "--K", "4", "--L", "2"], id="simulate"),
    ])
    def test_infinite_noise_variance_is_named(self, tmp_path, capsys, argv):
        code = main(argv + ["--sigma2-grid", "inf", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "noise variance" in capsys.readouterr().err

    def test_continuous_prior_in_simulate_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--K", "4", "--L", "2", "--prior", "gaussian",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "discrete input prior" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5"],
                     id="mi-sweep"),
        pytest.param(["simulate", "--K", "3", "--L", "2", "--kind", "wbe",
                      "--n-samples", "1000"], id="simulate"),
    ])
    def test_nonpositive_information_is_solver_error(self, tmp_path, capsys,
                                                     argv):
        # at sigma2 1e15 the terms of C cancel to 0: exit 3, not a zero C
        # in the CSV or a division by it in simulate's gap column
        out = tmp_path / "x.csv"
        code = main(argv + ["--sigma2-grid", "1e15", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1e+15" in err
        assert not out.exists()

    def test_nan_candidate_atom_is_config_error(self, tmp_path, capsys):
        # the atom's weight lies within the mass tolerance; its location
        # does not lie in [0, inf)
        code = main(["verify-optimality", "--beta", "2", "--candidates", "0",
                     "--candidate", "discrete:[[NaN,1e-12],[2,1]]",
                     "--sigma2-grid", "0.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "nan" in capsys.readouterr().err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        code = main(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5",
                     "--sigma2-grid", "0.5",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        pytest.param(["mi-sweep", "--spectrum", "wbe", "--beta", "1.5",
                      "--sigma2-grid", "0.5", "--seed", "1"], id="mi-sweep-seed"),
        pytest.param(["transform", "--spectrum", "wbe", "--beta", "1.5",
                      "--units", "bits"], id="transform-units"),
    ])
    def test_flag_of_no_command_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("line, key", [
        pytest.param('sigma2grid = "0.5"', "sigma2grid", id="typo"),
        pytest.param("seed = 1", "seed", id="other-command"),
    ])
    def test_config_key_of_no_flag_is_rejected(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text('spectrum = "wbe"\nbeta = 1.5\n' + line + "\n")
        out = tmp_path / "x.csv"
        code = main(["mi-sweep", "--config", str(cfg), "--sigma2-grid", "0.5",
                     "--out", str(out)])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        pytest.param("K = [4]\nL = 2\n", id="list-for-single-flag"),
        pytest.param("K = 4\nL = 2\nprior = 5\n", id="number-for-prior"),
        pytest.param('K = "four"\nL = 2\n', id="int-type"),
        pytest.param('K = 4\nL = 2\nkind = "xyz"\n', id="kind-choice"),
    ])
    def test_config_value_is_parsed_as_its_flag(self, tmp_path, text):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        try:
            code = main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "x.csv")])
        except SystemExit as exc:  # argparse rejects a bad type or choice
            code = exc.code
        assert code == 2


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spreadmi.cli", "mi-sweep", "--prior",
             "gaussian", "--spectrum", "wbe", "--beta", "1.5",
             "--sigma2-grid", "0.5", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_import_loads_no_scipy(self, tmp_path):
        """The runtime needs only numpy; scipy is a test oracle, and neither
        a cold start of the CLI nor a small run of the three solving
        commands pays for importing it or ``numpy.ma``."""
        out = str(tmp_path / "run")
        script = (
            "import sys\n"
            "from spreadmi.cli import main\n"
            f"grid = ['--sigma2-grid', '0.5', '--out', {out!r}]\n"
            "assert main(['mi-sweep', '--beta', '1.5', *grid]) == 0\n"
            "assert main(['simulate', '--K', '3', '--L', '2', '--n-samples',"
            " '1000', '--seed', '0', *grid]) == 0\n"
            "assert main(['verify-optimality', '--beta', '1.5', '--candidates',"
            " '2', '--seed', '0', *grid]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.split('.')[:2] == ['numpy', 'ma']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
