import csv
import hashlib
import json

import numpy as np
import pytest

from qdivstat import io as qio
from qdivstat.cli import EXIT_NUMERIC, EXIT_VALIDATION, cli_main
from qdivstat.divergences import eigenbasis_povm, petz_renyi, umegaki
from qdivstat.limit_laws import qre_null_limit
from qdivstat.pauli_tomography import build_pauli_basis, estimate_stack, sample_counts

from conftest import rand_direction, rand_state

# A unit-trace matrix that is not Hermitian (asymmetry 0.3).
NON_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]])


@pytest.fixture
def states(rng, tmp_path):
    rho = rand_state(rng, 2, 0.1)
    sigma = rand_state(rng, 2, 0.1)
    rp, sp = tmp_path / "rho.json", tmp_path / "sigma.json"
    qio.dump_matrix(rho, str(rp))
    qio.dump_matrix(sigma, str(sp))
    return rho, sigma, str(rp), str(sp)


def run(capsys, argv):
    rc = cli_main(argv)
    out = capsys.readouterr().out
    return rc, out


DIVERGENCE_KINDS = ["umegaki", "petz", "sandwiched", "fidelity", "max", "measured"]


def _divergence_argv(kind, rho_path, sigma_path, tmp_path):
    """``qdivstat divergence`` of ``kind`` with what it needs: an alpha, or a 2 x 2 POVM file."""
    argv = ["divergence", "--kind", kind, "--rho", rho_path, "--sigma", sigma_path]
    if kind in ("petz", "sandwiched"):
        argv += ["--alpha", "1.5"]
    if kind == "measured":
        pv = tmp_path / "povm.json"
        with open(pv, "w") as fh:
            json.dump([qio.matrix_to_json(np.diag([1.0, 0.0])), qio.matrix_to_json(np.diag([0.0, 1.0]))], fh)
        argv += ["--povm", str(pv)]
    return argv


class TestDivergenceCommand:
    def test_umegaki(self, states, capsys):
        rho, sigma, rp, sp = states
        rc, out = run(capsys, ["divergence", "--kind", "umegaki", "--rho", rp, "--sigma", sp])
        assert rc == 0
        payload = json.loads(out)
        assert payload["name"] == "umegaki"
        assert payload["support_ok"] is True
        assert payload["value"] == pytest.approx(umegaki(rho, sigma).value)

    def test_petz_with_alpha(self, states, capsys):
        rho, sigma, rp, sp = states
        rc, out = run(capsys, ["divergence", "--kind", "petz", "--alpha", "1.5",
                               "--rho", rp, "--sigma", sp])
        assert rc == 0
        payload = json.loads(out)
        assert payload["alpha"] == 1.5
        assert payload["value"] == pytest.approx(petz_renyi(rho, sigma, 1.5).value)

    def test_petz_missing_alpha_is_validation_error(self, states, capsys):
        _, _, rp, sp = states
        rc, _ = run(capsys, ["divergence", "--kind", "petz", "--rho", rp, "--sigma", sp])
        assert rc == 2

    def test_sandwiched_infinite_alpha_is_validation_error(self, states, capsys):
        _, _, rp, sp = states
        rc = cli_main(["divergence", "--kind", "sandwiched", "--alpha", "inf", "--rho", rp, "--sigma", sp])
        assert rc == EXIT_VALIDATION
        assert "alpha inf outside" in capsys.readouterr().err

    def test_infinite_value_serialized(self, tmp_path, capsys):
        rp, sp = tmp_path / "r.json", tmp_path / "s.json"
        qio.dump_matrix(np.diag([1.0, 0.0]), str(rp))
        qio.dump_matrix(np.diag([0.0, 1.0]), str(sp))
        rc, out = run(capsys, ["divergence", "--kind", "umegaki", "--rho", str(rp), "--sigma", str(sp)])
        assert rc == 0
        payload = json.loads(out)
        assert payload["value"] == "inf"
        assert payload["support_ok"] is False

    def test_measured_with_povm_files(self, states, tmp_path, capsys):
        rho, sigma, rp, sp = states
        pv = tmp_path / "povm.json"
        with open(pv, "w") as fh:
            json.dump([qio.matrix_to_json(E) for E in eigenbasis_povm(rho).elements], fh)
        rc, out = run(capsys, ["divergence", "--kind", "measured", "--rho", rp,
                               "--sigma", sp, "--povm", str(pv)])
        assert rc == 0
        assert json.loads(out)["argmax_index"] == 0

    def test_eigensolver_failure_is_numeric_error(self, rng, tmp_path, monkeypatch, capsys):
        # d = 4: 2x2 states take the closed-form eigensolver and never reach LAPACK
        rp, sp = tmp_path / "rho4.json", tmp_path / "sigma4.json"
        qio.dump_matrix(rand_state(rng, 4, 0.05), str(rp))
        qio.dump_matrix(rand_state(rng, 4, 0.05), str(sp))

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rc = cli_main(["divergence", "--kind", "umegaki", "--rho", str(rp), "--sigma", str(sp)])
        assert rc == EXIT_NUMERIC
        assert "numeric failure: Hermitian eigensolver did not converge" in capsys.readouterr().err


    @pytest.mark.parametrize("kind", DIVERGENCE_KINDS)
    @pytest.mark.parametrize("role", ["rho", "sigma"])
    def test_non_hermitian_state_is_named(self, states, tmp_path, capsys, kind, role):
        _, _, rp, sp = states
        bad = tmp_path / "bad.json"
        qio.dump_matrix(NON_HERMITIAN, str(bad))
        paths = {"rho": rp, "sigma": sp, role: str(bad)}
        rc = cli_main(_divergence_argv(kind, paths["rho"], paths["sigma"], tmp_path))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {role}: matrix is not Hermitian (asymmetry")

    @pytest.mark.parametrize("kind", DIVERGENCE_KINDS)
    def test_mismatched_dimensions_is_validation_error(self, states, tmp_path, capsys, kind):
        _, _, rp, _ = states
        big = tmp_path / "sigma4.json"
        qio.dump_matrix(np.eye(4) / 4, str(big))
        rc = cli_main(_divergence_argv(kind, rp, str(big), tmp_path))
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: sigma has shape (4, 4), but rho has shape (2, 2)\n"


class TestLimitCommand:
    def test_eval_bundle(self, rng, tmp_path, capsys):
        rho = rand_state(rng, 2, 0.1)
        L1 = rand_direction(rng, 2)
        bundle = {"functional": "qre_null", "rho": qio.matrix_to_json(rho),
                  "L1": qio.matrix_to_json(L1), "L2": None}
        path = tmp_path / "bundle.json"
        with open(path, "w") as fh:
            json.dump(bundle, fh)
        rc, out = run(capsys, ["limit", "eval", str(path)])
        assert rc == 0
        assert float(out) == pytest.approx(qre_null_limit(rho, L1, None))

    @pytest.mark.parametrize("functional,change,field", [
        ("petz_alt", {}, "alpha"),
        ("petz_null", {}, "alpha"),
        ("sandwiched_alt", {}, "alpha"),
        ("petz_alt", {"alpha": "1.5"}, "alpha"),
        ("sandwiched_alt", {"alpha": None}, "alpha"),
        ("qre_alt", {"sigma": None}, "sigma"),
        ("qre_alt", {"sigma": "missing"}, "sigma"),
        ("fidelity", {"sigma": [[1, 0], [0, 0]]}, "sigma"),
    ])
    def test_bad_bundle_field_is_validation_error(self, rng, tmp_path, capsys, functional, change, field):
        # no alpha unless ``change`` sets one; a sigma of "missing" drops the field
        state = qio.matrix_to_json(rand_state(rng, 2, 0.1))
        bundle = {"functional": functional, "rho": state, "sigma": state,
                  "L1": qio.matrix_to_json(rand_direction(rng, 2)), "L2": None, **change}
        if bundle["sigma"] == "missing":
            del bundle["sigma"]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        rc = cli_main(["limit", "eval", str(path)])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "Traceback" not in err
        assert f"field {field!r}" in err

    @pytest.mark.parametrize("L1, named", [
        ([[0.0, 1.0], [0.0, 0.0]], "L1: matrix is not Hermitian"),
        ([[1.0, 0.0], [0.0, 0.0]], "L1 has trace 1.000e+00; expected traceless"),
        ([[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.0]], "L1 has shape (3, 3), not (2, 2)"),
    ], ids=["non-hermitian", "trace-one", "wrong-dimension"])
    @pytest.mark.parametrize("functional", ["qre_alt", "petz_alt"])
    def test_bad_direction_is_validation_error(self, tmp_path, capsys, functional, L1, named):
        bundle = {"functional": functional, "rho": qio.matrix_to_json(np.diag([0.75, 0.25])),
                  "sigma": qio.matrix_to_json(np.eye(2) / 2), "alpha": 1.5, "L1": qio.matrix_to_json(np.array(L1))}
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        rc = cli_main(["limit", "eval", str(path)])
        out, err = capsys.readouterr()
        assert rc == EXIT_VALIDATION and out == ""
        assert "Traceback" not in err and named in err

    def test_unknown_functional(self, rng, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        with open(path, "w") as fh:
            json.dump({"functional": "nope"}, fh)
        rc, _ = run(capsys, ["limit", "eval", str(path)])
        assert rc == 2


class TestTomographyCommand:
    def test_deterministic_output(self, states, capsys):
        rho, _, rp, _ = states
        rc1, out1 = run(capsys, ["tomography", "--state", rp, "--n", "200", "--seed", "4"])
        rc2, out2 = run(capsys, ["tomography", "--state", rp, "--n", "200", "--seed", "4"])
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        counts = sample_counts(rho, build_pauli_basis(1), 200, range(1), 4)[0]
        assert payload["record"] == {"n": 200, "seed": 4, "plus_counts": counts.tolist()}

    # sha256 of the stdout and of the --out file of one run per (state, estimator):
    # a mixed state at n = 200 keeps its raw reconstruction, a pure one at n = 20
    # takes the projection branch
    DIGESTS = {
        (2, "mixed", False): ("847cb1e6fdaf8a3951be90ba0f7b0b06843314ac4839f56f60af1846cc5cd0b1",
                              "4163d7aa57fde08a4909bf7111356eab50bb06a312e92de82bdd4d79d30915e0"),
        (2, "mixed", True): ("c5e3205b6b7a61200336627e3fbaf5893ebf0ab2ccbd86456b7ebc09d5d768d9",
                              "7f42df5212f0a8ac23d90783d85386337569eafde6ac8e777310dfe2e8bde4c3"),
        (2, "pure", False): ("08485e8683b549977cdd5632976c69453908aef78725ac4cf0515bf31e9cb0af",
                              "b4a1a110a2523b353fdca498ba9a9896eaf4f798e9650f6b07b92135a66ceaf1"),
        (2, "pure", True): ("815404ac41ef399ed316fb07c510ba430f1d80b8e71e3fc92d7718a1a01af767",
                              "e926fa95350aff17798be95fd324f12ddacacb16980c4512c090f64550a19cb6"),
        (4, "mixed", False): ("2373da5e589e0b50e242e74587fe080b1938f6cb7911bc6b1f1327dcd84e5ba2",
                              "418c30076be7c4497e838a2fd1fee2e45bcb49206a3a5af2c8bbb13aee03b80a"),
        (4, "mixed", True): ("618ec55b4f6a1bee9dccfed4e1cbb2e0554939b80bf8799f69ae9c2b8f59aae0",
                              "69ba4173b43e304d41611d82b6f8aaed9bdad45dec0df9eb7de1d5187554bf98"),
        (4, "pure", False): ("8d1bdc078983a6aca0c08af2d97e8da93ab68588aa0c8f83f26b3e6592ead809",
                              "1483968f92c0aa32c31c2d7995c27a822abf3a2a6ae5d4f7d422396ec2bb1e82"),
        (4, "pure", True): ("62d6315ccebb00b64c74a92b956dead9eaae1de28ff9abd5122ccaa1322da5ba",
                              "ba7cbbdbadef36e770906cf25ff87f8969e79c16d2b24eabeeb58765b87172fe"),
    }

    @pytest.mark.parametrize("case", list(DIGESTS), ids=lambda c: f"d{c[0]}-{c[1]}-{'sigma' if c[2] else 'rho'}")
    def test_output_bytes_pinned(self, tmp_path, capsys, case):
        dim, kind, sigma_estimator = case
        rng = np.random.default_rng(dim)
        if kind == "mixed":
            state, n = rand_state(rng, dim, 0.1), 200
        else:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state, n = np.outer(v, v.conj()) / np.vdot(v, v).real, 20
        basis = build_pauli_basis(dim.bit_length() - 1)
        projected = estimate_stack(sample_counts(state, basis, n, range(1), 7), n, basis)[2][0]
        assert projected == (kind == "pure")
        path, out = tmp_path / "state.json", tmp_path / "estimate.json"
        qio.dump_matrix(state, str(path))
        argv = ["tomography", "--state", str(path), "--n", str(n), "--seed", "7", "--out", str(out)]
        rc, stdout = run(capsys, argv + ["--sigma-estimator"] * sigma_estimator)
        assert rc == 0
        digests = (hashlib.sha256(stdout.encode()).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests == self.DIGESTS[case]

    @pytest.mark.parametrize("state,named", [(np.diag([2.0, 0.0]), "state has trace off 1"),
                                             (np.diag([1.2, -0.2]), "state has negative eigenvalue"),
                                             (NON_HERMITIAN, "state: matrix is not Hermitian")],
                             ids=["trace-2", "negative-eigenvalue", "non-hermitian"])
    def test_state_not_a_density_operator_is_validation_error(self, tmp_path, capsys, state, named):
        path = tmp_path / "state.json"
        qio.dump_matrix(state, str(path))
        rc = cli_main(["tomography", "--state", str(path), "--n", "200", "--seed", "4"])
        captured = capsys.readouterr()
        assert rc == EXIT_VALIDATION and captured.out == ""
        assert captured.err.startswith(f"error: {named}")

    def test_dimension_not_power_of_two(self, tmp_path, capsys):
        path = tmp_path / "qutrit.json"
        qio.dump_matrix(np.eye(3) / 3, str(path))
        rc = cli_main(["tomography", "--state", str(path), "--n", "200", "--seed", "4"])
        assert rc == EXIT_VALIDATION
        assert "dimension 3 " in capsys.readouterr().err

    def test_nan_entry_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 2, "re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
        rc = cli_main(["tomography", "--state", str(path), "--n", "200", "--seed", "4"])
        assert rc == EXIT_VALIDATION
        assert "NaN or inf" in capsys.readouterr().err

    def test_missing_seed_rejected_by_parser(self, states, capsys):
        _, _, rp, _ = states
        rc = cli_main(["tomography", "--state", rp, "--n", "200"])
        assert rc == 2

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unreadable_path_is_validation_error(self, states, tmp_path, capsys, where):
        _, _, rp, _ = states
        path = str(tmp_path) if where == "directory" else rp + "/state.json"
        rc = cli_main(["tomography", "--state", path, "--n", "3", "--seed", "1"])
        assert rc == EXIT_VALIDATION
        assert repr(path) in capsys.readouterr().err


class TestExperimentCommand:
    def test_inline_run_writes_byte_identical_csv(self, states, tmp_path, capsys):
        _, _, rp, sp = states
        outs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            rc, _ = run(capsys, ["experiment", "--kind", "one_sample_alt", "--rho", rp,
                                 "--sigma", sp, "--n", "300", "--trials", "120",
                                 "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_run(self, states, tmp_path, capsys):
        rho, sigma, _, _ = states
        cfg = {"kind": "one_sample_null", "rho": qio.matrix_to_json(rho),
               "n_grid": [200], "trials": 110, "seed": 12}
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc, out = run(capsys, ["experiment", "--config", str(path)])
        assert rc == 0
        assert json.loads(out)["summary"][0]["n"] == 200

    @pytest.mark.parametrize("flag,value", [("--kind", "two_sample_alt"), ("--rho", None), ("--sigma", None),
                                            ("--alpha", "1.5"), ("--n", "300,400"), ("--trials", "500")])
    def test_config_rejects_experiment_flags(self, states, tmp_path, capsys, flag, value):
        rho, _, rp, _ = states
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config(rho)))
        rc = cli_main(["experiment", "--config", str(path), flag, rp if value is None else value])
        assert rc == EXIT_VALIDATION
        assert flag in capsys.readouterr().err

    def test_config_seed_and_out_override_the_file(self, states, tmp_path, capsys):
        rho, _, _, _ = states
        path, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
        path.write_text(json.dumps(_config(rho, seed=1)))
        rc, printed = run(capsys, ["experiment", "--config", str(path), "--seed", "12", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 110
        assert rows[0]["experiment_id"] == json.loads(printed)["experiment_id"] == "one_sample_null-d2-seed12"

    def test_zero_trials_is_validation_error(self, states, capsys):
        _, _, rp, sp = states
        rc = cli_main(["experiment", "--kind", "one_sample_alt", "--rho", rp, "--sigma", sp,
                       "--n", "300", "--trials", "0", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert "at least 100 trials" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["one_sample_alt", "two_sample_alt"])
    def test_degenerate_alternative_law_is_validation_error(self, states, capsys, kind):
        _, _, rp, _ = states
        rc = cli_main(["experiment", "--kind", kind, "--rho", rp, "--sigma", rp, "--n", "300",
                       "--trials", "120", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert "v_pred" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["rho", "sigma"])
    def test_non_unit_trace_is_validation_error(self, states, tmp_path, capsys, role):
        _, _, rp, sp = states
        bad = tmp_path / "bad.json"
        qio.dump_matrix(1.5 * np.diag([0.7, 0.3]), str(bad))
        paths = {"rho": rp, "sigma": sp, role: str(bad)}
        rc = cli_main(["experiment", "--kind", "two_sample_alt", "--rho", paths["rho"], "--sigma", paths["sigma"],
                       "--n", "300", "--trials", "120", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert f"{role} has trace off 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["two_sample_alt", "measured"])
    @pytest.mark.parametrize("role", ["rho", "sigma"])
    def test_non_hermitian_state_is_validation_error(self, states, tmp_path, capsys, role, kind):
        _, _, rp, sp = states
        bad = tmp_path / "bad.json"
        qio.dump_matrix(NON_HERMITIAN, str(bad))
        paths = {"rho": rp, "sigma": sp, role: str(bad)}
        rc = cli_main(["experiment", "--kind", kind, "--rho", paths["rho"], "--sigma", paths["sigma"],
                       "--n", "300", "--trials", "120", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {role}: matrix is not Hermitian")

    @pytest.mark.parametrize("kind", ["two_sample_alt", "measured", "one_sample_null"])
    def test_mismatched_dimensions_is_validation_error(self, states, tmp_path, capsys, kind):
        _, _, rp, _ = states
        big = tmp_path / "sigma4.json"
        qio.dump_matrix(np.eye(4) / 4, str(big))
        rc = cli_main(["experiment", "--kind", kind, "--rho", rp, "--sigma", str(big),
                       "--n", "300", "--trials", "120", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: sigma has shape (4, 4), but rho has shape (2, 2)\n"

    def test_missing_seed_is_validation_error(self, states, capsys):
        _, _, rp, sp = states
        rc, _ = run(capsys, ["experiment", "--kind", "one_sample_alt", "--rho", rp,
                             "--sigma", sp, "--n", "300", "--trials", "120"])
        assert rc == 2

    @pytest.mark.parametrize("kind,alpha", [("petz", "1.5"), ("sandwiched", 0.2)])
    def test_config_alpha_is_validation_error(self, states, tmp_path, capsys, kind, alpha):
        rho, sigma, _, _ = states
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump({"kind": kind, "rho": qio.matrix_to_json(rho), "sigma": qio.matrix_to_json(sigma),
                       "alpha": alpha, "n_grid": [200], "trials": 110, "seed": 12}, fh)
        rc = cli_main(["experiment", "--config", str(path)])
        assert rc == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["one_sample_alt", "measured", "two_sample_null"])
    def test_alpha_for_a_kind_without_order_is_validation_error(self, states, tmp_path, capsys, kind):
        rho, sigma, rp, sp = states
        sigma_flags = [] if kind.endswith("null") else ["--sigma", sp]
        rc = cli_main(["experiment", "--kind", kind, "--rho", rp, *sigma_flags, "--alpha", "1.5", "--n", "300",
                       "--trials", "120", "--seed", "7"])
        assert rc == EXIT_VALIDATION
        assert f"{kind} takes no alpha" in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        fields = {} if kind.endswith("null") else {"sigma": qio.matrix_to_json(sigma)}
        path.write_text(json.dumps(_config(rho, kind=kind, alpha=1.5, **fields)))
        rc = cli_main(["experiment", "--config", str(path)])
        assert rc == EXIT_VALIDATION
        assert f"{kind} takes no alpha" in capsys.readouterr().err

    def test_config_missing_seed(self, states, tmp_path, capsys):
        rho, _, _, _ = states
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump({"kind": "one_sample_null", "rho": qio.matrix_to_json(rho),
                       "n_grid": [200], "trials": 110}, fh)
        rc, _ = run(capsys, ["experiment", "--config", str(path)])
        assert rc == 2


def _config(rho, **fields):
    return {"kind": "one_sample_null", "rho": qio.matrix_to_json(rho), "n_grid": [200], "trials": 110,
            "seed": 12, **fields}


def _scenario(**fields):
    return {"states": [qio.matrix_to_json(np.diag([0.75, 0.25]))], "sigma": qio.matrix_to_json(np.eye(2) / 2),
            "epsilons": [0.0, 1.0], "tau": 0.3, "n": 300, "trials": 60, "seed": 2, **fields}


@pytest.mark.parametrize("command,flag,body,field", [
    ("experiment", "--config", lambda rho: _config(rho, scaling_exponent="fast"), "scaling_exponent"),
    ("experiment", "--config", lambda rho: _config(rho, n_grid=100), "n_grid"),
    ("experiment", "--config", lambda rho: _config(rho, seed=None), "seed"),
    ("experiment", "--config", lambda rho: _config(rho, output_path=["rows.csv"]), "output_path"),
    ("hypothesis", "--scenario", lambda rho: _scenario(epsilons=2), "epsilons"),
    ("hypothesis", "--scenario", lambda rho: _scenario(n=float("inf")), "n"),
    ("hypothesis", "--scenario", lambda rho: _scenario(epsilons=[0.0, float("nan")]), "epsilons"),
])
def test_malformed_json_field_is_validation_error(states, tmp_path, capsys, command, flag, body, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body(states[0])))
    argv = [command, flag, str(path)] + (["--out", str(tmp_path / "x.csv")] if command == "hypothesis" else [])
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "Traceback" not in err
    assert f"field {field!r}" in err


_RHO = np.diag([0.75, 0.25])
_STATE = qio.matrix_to_json(_RHO)
_INLINE = "experiment --kind two_sample_alt --rho {bad} --sigma {sp} --n 300 --trials 120 --seed 7"


@pytest.mark.parametrize("command,content,named", [
    ("divergence --kind umegaki --rho {bad} --sigma {sp}", [1, 2], "expected a JSON object"),
    ("tomography --state {bad} --n 200 --seed 4", [1, 2], "expected a JSON object"),
    (_INLINE, [1, 2], "expected a JSON object"),
    ("divergence --kind umegaki --rho {bad} --sigma {sp}", {**_STATE, "dim": None}, "field 'dim'"),
    ("tomography --state {bad} --n 200 --seed 4", {**_STATE, "dim": None}, "field 'dim'"),
    (_INLINE, {**_STATE, "dim": None}, "field 'dim'"),
    ("divergence --kind umegaki --rho {bad} --sigma {sp}", {**_STATE, "im": None}, "field 'im'"),
    ("divergence --kind measured --rho {rp} --sigma {sp} --povm {bad}", {"a": 1}, "a POVM is a JSON array"),
    ("limit eval {bad}", [1], "expected a JSON object"),
    ("limit eval {bad}", {"functional": "qre_null", "rho": _STATE, "l1": _STATE}, "unknown field 'l1'"),
    ("experiment --config {bad}", _config(_RHO, trails=100), "unknown field 'trails'"),
    ("experiment --config {bad}", _config(_RHO, ouput_path="rows.csv"), "unknown field 'ouput_path'"),
    ("experiment --config {bad}", _config(_RHO, seed=1.9), "field 'seed'"),
    ("experiment --config {bad}", _config(_RHO, n_grid=[100.8]), "field 'n_grid'"),
    ("experiment --config {bad}", _config(_RHO, trials=150.9), "field 'trials'"),
    ("experiment --config {bad}", _config(_RHO, scaling_exponent=float("nan")), "scaling_exponent"),
    ("experiment --config {bad}", _config(_RHO, scaling_exponent=float("inf")), "scaling_exponent"),
], ids=["divergence-array", "tomography-array", "inline-array", "divergence-null-dim", "tomography-null-dim",
        "inline-null-dim", "divergence-null-im", "povm-object", "bundle-array", "bundle-l1", "config-trails",
        "config-ouput_path", "config-float-seed", "config-float-n", "config-float-trials", "config-nan-exponent",
        "config-inf-exponent"])
def test_malformed_input_file_is_validation_error(states, tmp_path, capsys, command, content, named):
    _, _, rp, sp = states
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    rc = cli_main(command.format(bad=bad, rp=rp, sp=sp).split())
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "Traceback" not in err
    assert f"{bad}: " in err and named in err


@pytest.mark.parametrize("command", [
    "tomography --state {rp} --n 200 --seed -1",
    "experiment --kind one_sample_null --rho {rp} --n 300 --trials 120 --seed -1",
    "experiment --config {config} --seed -1",
    "hypothesis --scenario {scenario} --out {out} --seed -1",
], ids=["tomography", "inline", "config", "hypothesis"])
def test_negative_seed_is_validation_error(states, tmp_path, capsys, command):
    _, _, rp, _ = states
    config, scenario = tmp_path / "cfg.json", tmp_path / "scenario.json"
    config.write_text(json.dumps(_config(_RHO)))
    scenario.write_text(json.dumps(_scenario()))
    rc = cli_main(command.format(rp=rp, config=config, scenario=scenario, out=tmp_path / "x.csv").split())
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert "seed must be non-negative, got -1" in err and "Traceback" not in err


class TestHypothesisCommand:
    def test_scenario_run(self, tmp_path, capsys):
        sigma = np.eye(2) / 2
        rho = np.diag([0.75, 0.25])
        d0 = umegaki(rho, sigma).value
        scenario = {"states": [qio.matrix_to_json(rho)], "sigma": qio.matrix_to_json(sigma),
                    "epsilons": [0.0, d0 + 0.1], "tau": 0.3, "n": 300, "trials": 60, "seed": 2}
        path = tmp_path / "scenario.json"
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        out_csv = tmp_path / "rates.csv"
        rc, out = run(capsys, ["hypothesis", "--scenario", str(path), "--out", str(out_csv)])
        assert rc == 0
        header = out_csv.read_text().splitlines()[0]
        assert header == ("hypothesis,trials,errors,rate,wilson_low,wilson_high,copies_used,"
                          "projection_fraction,borderline,gross_exceedance")
        row = json.loads(out)[0]
        assert row["hypothesis"] == 0
        with open(out_csv, newline="") as fh:
            back = next(csv.DictReader(fh))
        assert float(back["projection_fraction"]) == row["projection_fraction"]
        assert back["borderline"] == str(row["borderline"])
        assert back["gross_exceedance"] == str(row["gross_exceedance"])

    def test_non_unit_trace_state_is_validation_error(self, tmp_path, capsys):
        scenario = {"states": [qio.matrix_to_json(1.5 * np.diag([0.7, 0.3]))],
                    "sigma": qio.matrix_to_json(np.eye(2) / 2),
                    "epsilons": [0.2, 1.0], "tau": 0.3, "n": 300, "trials": 60, "seed": 2}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        rc = cli_main(["hypothesis", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION
        assert "state 0 has trace off 1" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["state 0", "sigma"])
    def test_non_hermitian_state_is_validation_error(self, tmp_path, capsys, role):
        bad = qio.matrix_to_json(NON_HERMITIAN)
        scenario = {"states": [bad if role == "state 0" else qio.matrix_to_json(np.diag([0.7, 0.3]))],
                    "sigma": bad if role == "sigma" else qio.matrix_to_json(np.eye(2) / 2),
                    "epsilons": [0.0, 1.0], "tau": 0.3, "n": 300, "trials": 60, "seed": 2}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        rc = cli_main(["hypothesis", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {role}: matrix is not Hermitian")

    def test_bad_scenario_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("{}")
        rc, _ = run(capsys, ["hypothesis", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestParsing:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert cli_main(["divergence", "--kind", "umegaki"]) == 2
