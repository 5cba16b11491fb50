import json
import os

import click
import numpy as np
import pytest
from click.testing import CliRunner

from oracles import matrix_of, matrix_text
from stategeom import config, validate_state
from stategeom.cli import main
from stategeom.serialize import dumps_canonical, load_matrix_file, matrix_to_jsonable


@pytest.fixture
def runner():
    return CliRunner()


def write(path, matrix, kind="operator"):
    path.write_text(matrix_text(matrix, kind))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "state": write(tmp_path / "state.json", np.diag([0.5, 0.5]), "state"),
        "target": write(tmp_path / "target.json", np.diag([0.75, 0.25]), "state"),
        "g": write(tmp_path / "g.json", np.diag([np.sqrt(1.5), np.sqrt(0.5)])),
        "identity": write(tmp_path / "identity.json", np.eye(2)),
        "gen": write(tmp_path / "gen.json",
                     np.array([[0.2, 0.1 + 0.3j], [0.4 - 0.1j, -0.2]])),
        "bad": write(tmp_path / "bad.json", np.diag([1.0, -1e-3])),
        "tiny": write(tmp_path / "tiny.json", 1e-8 * np.eye(2)),
        "tmp": tmp_path,
    }


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        path.write_text(matrix_text(m, "operator"))
        loaded, kind = load_matrix_file(path)
        assert dumps_canonical(matrix_to_jsonable(loaded, kind)) == path.read_text()

    def test_kind_validation_on_load(self, tmp_path):
        path = tmp_path / "notstate.json"
        path.write_text(matrix_text(np.diag([0.6, 0.6]), "state"))
        from stategeom.errors import TraceError

        with pytest.raises(TraceError):
            load_matrix_file(path)

    def test_entry_count_checked(self, tmp_path):
        from stategeom.errors import ValidationError

        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "entries": [[1.0, 0.0]]}))
        with pytest.raises(ValidationError, match="expected 4 entries"):
            load_matrix_file(path)


class TestValidateCommand:
    def test_valid_state(self, runner, files):
        result = runner.invoke(main, ["validate", files["state"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["valid"] and payload["kind"] == "state"
        assert payload["orbit_class"] == "FiniteRank(2)"

    def test_invalid_psd_exits_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["bad"]])
        assert result.exit_code == 2
        assert "NotPSD" in result.output or "NotPSD" in (result.stderr or "")

    def test_positive_fallback(self, runner, files, tmp_path):
        path = write(tmp_path / "pos.json", np.diag([2.0, 1.0]))
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "positive"

    def test_positive_fallback_validates_once(self, runner, tmp_path, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        result = runner.invoke(main, ["validate", write(tmp_path / "two.json", 2.0 * np.eye(2))])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "positive"
        # one for validate_positive; min_eigenvalue reads classify_orbit's eigh
        assert len(calls) == 1

    def test_a_loaded_state_takes_one_trace_test(self, tmp_path, monkeypatch):
        whats = []
        check = config.check

        def counting(what, *args, **kwargs):
            whats.append(what)
            return check(what, *args, **kwargs)

        monkeypatch.setattr(config, "check", counting)
        for kind in ("state", "positive", "operator"):
            whats.clear()
            validate_state(load_matrix_file(write(tmp_path / f"{kind}.json",
                                                  np.diag([0.5, 0.5]), kind))[0])
            assert whats.count("|trace - 1|") == 1, kind

    def test_min_eigenvalue_of_the_hermitian_part(self, runner, tmp_path):
        # Hermitian part [[0.5, 1.5e-11], [1.5e-11, 0.5]], eigenvalues 0.5 -+ 1.5e-11
        path = write(tmp_path / "skewed.json", np.array([[0.5, 0.0], [3e-11, 0.5]]))
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["min_eigenvalue"] == pytest.approx(0.5 - 1.5e-11,
                                                                            rel=1e-15)


class TestActCommand:
    def test_identity_round_trip_bytes(self, runner, files):
        result = runner.invoke(main, ["act", "phi", files["identity"], files["state"]])
        assert result.exit_code == 0
        with open(files["state"]) as fh:
            assert result.output == fh.read()

    def test_numerically_singular_exits_3(self, runner, files):
        result = runner.invoke(main, ["act", "phi", files["tiny"], files["state"]])
        assert result.exit_code == 3
        assert "NumericallySingular" in result.output

    def test_alpha_action_output_kind(self, runner, files):
        result = runner.invoke(main, ["act", "alpha", files["g"], files["state"]])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "positive"

    def test_alpha_accepts_indefinite_hermitian(self, runner, files, tmp_path):
        indef = write(tmp_path / "indef.json", np.diag([1.0, -1.0]))
        result = runner.invoke(main, ["act", "alpha", files["g"], indef])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "operator"
        m = matrix_of(payload)
        np.testing.assert_allclose(m, np.diag([1.5, -0.5]), atol=1e-12)


class TestConnectCommand:
    def test_qubit_certificate(self, runner, files):
        result = runner.invoke(main, ["connect", "phi", files["state"], files["target"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["C"] == pytest.approx(1.5)
        g = matrix_of(payload["g"])
        np.testing.assert_allclose(g, np.diag([np.sqrt(1.5), np.sqrt(0.5)]), atol=1e-12)

    def test_rank_mismatch_exits_2(self, runner, files, tmp_path):
        pure = write(tmp_path / "pure.json", np.diag([1.0, 0.0]), "state")
        result = runner.invoke(main, ["connect", "phi", files["state"], pure])
        assert result.exit_code == 2
        assert "RankMismatch" in result.output


class TestIsotropyCommand:
    def test_dimensions(self, runner, files):
        result = runner.invoke(main, ["isotropy", files["state"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["dim_alpha"] == 4
        assert payload["dim_phi"] == 5
        assert payload["orbit_dim_phi"] == 3
        assert payload["max_residual"] <= 1e-9

    def test_lapack_failure_exits_3(self, runner, files, monkeypatch):
        import stategeom.isotropy

        def no_convergence(functional):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(stategeom.isotropy, "isotropy_report", no_convergence)
        result = runner.invoke(main, ["isotropy", files["state"]])
        assert result.exit_code == 3
        assert "NumericalError: Eigenvalues did not converge" in result.output
        assert "Traceback" not in result.output

    def test_memory_error_exits_3(self, runner, files, monkeypatch):
        import stategeom.isotropy

        def too_large(functional):
            raise MemoryError("Unable to allocate 512. MiB for an array")

        monkeypatch.setattr(stategeom.isotropy, "isotropy_report", too_large)
        result = runner.invoke(main, ["isotropy", files["state"]])
        assert result.exit_code == 3
        assert "NumericalError: out of memory: Unable to allocate 512. MiB" in result.output
        assert "Traceback" not in result.output


class TestTangentCommand:
    def test_phi_tangent_with_fd_report(self, runner, files):
        result = runner.invoke(main, ["tangent", files["state"], files["gen"]])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["trace"]) <= 1e-10
        assert payload["fd_check"]["relative_error"] <= 1e-6


class TestFlowCommand:
    def test_csv_shape_and_determinism(self, runner, files):
        args = ["flow", files["state"], files["gen"], "--t0", "0", "--t1", "1",
                "--steps", "4"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        lines = first.output.strip().split("\n")
        assert lines[0].startswith("t,re_0_0,im_0_0")
        assert len(lines) == 5

    def test_json_format(self, runner, files):
        result = runner.invoke(main, ["--format", "json", "flow", files["state"],
                                      files["gen"], "--t0", "0", "--t1", "1",
                                      "--steps", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload["states"]) == 3

    def test_ill_conditioned_flow_exits_3(self, runner, files, tmp_path):
        z = write(tmp_path / "z.json", np.diag([1.0, -1.0]))
        result = runner.invoke(main, ["flow", files["state"], z, "--t0", "0",
                                      "--t1", "20", "--steps", "3"])
        assert result.exit_code == 3
        assert "NumericalError" in result.output
        assert "t = 20.0" in result.output


class TestGnsCommand:
    def test_pure_state_dimension(self, runner, files, tmp_path):
        pure = write(tmp_path / "pure.json", np.diag([1.0, 0.0]), "state")
        result = runner.invoke(main, ["gns", pure])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["dim"] == 2
        assert len(payload["rep"]) == 4

    def test_pinned_cyclic_coordinates(self, runner, files):
        first = runner.invoke(main, ["gns", files["target"]])
        second = runner.invoke(main, ["gns", files["target"]])
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        # purification of diag(3/4, 1/4): sqrt(p_j) e_j kron f_j, row-major
        np.testing.assert_allclose(
            payload["cyclic"],
            [[np.sqrt(0.75), 0.0], [0.0, 0.0], [0.0, 0.0], [np.sqrt(0.25), 0.0]],
            rtol=0.0, atol=1e-15,
        )


class TestTruncateCommand:
    def test_identity_config(self, runner, files):
        cfg = files["tmp"] / "trunc.json"
        cfg.write_text(json.dumps({
            "dims": [2, 4, 8],
            "spec0": {"kind": "gibbs", "ratio": 0.5},
            "spec1": {"kind": "gibbs", "ratio": 0.5},
        }))
        result = runner.invoke(main, ["truncate", str(cfg)])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,C,opnorm,residual,flag"
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_divergent_config_flags(self, runner, files):
        cfg = files["tmp"] / "div.json"
        cfg.write_text(json.dumps({
            "dims": [2, 64],
            "spec0": {"kind": "gibbs", "ratio": 0.25},
            "spec1": {"kind": "gibbs", "ratio": 0.5},
        }))
        result = runner.invoke(main, ["--format", "json", "truncate", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["diverged"] and payload["flag"][-1]

    def test_random_spectra_require_seed(self, runner, files):
        cfg = files["tmp"] / "rand.json"
        cfg.write_text(json.dumps({
            "dims": [3],
            "spec0": {"kind": "dirichlet"},
            "spec1": {"kind": "dirichlet"},
        }))
        result = runner.invoke(main, ["truncate", str(cfg)])
        assert result.exit_code == 2
        assert "seed" in result.output
        seeded = runner.invoke(main, ["--seed", "7", "truncate", str(cfg)])
        assert seeded.exit_code == 0
        again = runner.invoke(main, ["--seed", "7", "truncate", str(cfg)])
        assert seeded.output == again.output


class TestRecombineCommand:
    def test_endpoint(self, runner, files, tmp_path):
        g2 = write(tmp_path / "g2.json", np.diag([1.0, 2.0]))
        result = runner.invoke(main, ["recombine", files["state"], files["g"], g2, "0.5"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["residual"] <= 1e-9

    @pytest.mark.filterwarnings("error")
    def test_huge_elements_exit_0(self, runner, files, tmp_path):
        g = np.array([[1.0, 0.5], [0.0, 1.0]])
        big = write(tmp_path / "big.json", 1e200 * g)
        result = runner.invoke(main, ["recombine", files["state"], big, big, "0.5"])
        assert result.exit_code == 0 and result.stderr == ""
        payload = json.loads(result.output)
        assert payload["residual"] <= 1e-12
        np.testing.assert_allclose(matrix_of(payload["mixture"]), g @ g.T / np.trace(g @ g.T),
                                   rtol=1e-14)

    def test_non_tracial_exits_2(self, runner, files, tmp_path):
        tau = write(tmp_path / "tau.json", np.diag([0.75, 0.25]), "state")
        result = runner.invoke(main, ["recombine", tau, files["g"], files["identity"],
                                      "0.5"])
        assert result.exit_code == 2
        assert "NotTracial" in result.output


class TestGlobalFlags:
    def test_out_writes_file(self, runner, files, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["--out", str(out), "validate", files["state"]])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["valid"]

    def test_tol_rescales_validation(self, runner, files, tmp_path):
        # trace off by 4e-10: rejected at default tolerance, accepted at --tol 100
        loose = write(tmp_path / "loose.json", np.diag([0.5 + 4e-10, 0.5]), "state")
        strict = runner.invoke(main, ["validate", loose])
        assert strict.exit_code == 2 and "TraceError" in strict.output
        relaxed = runner.invoke(main, ["--tol", "100", "validate", loose])
        assert relaxed.exit_code == 0

    def test_env_var_default(self, runner, files, tmp_path):
        loose = write(tmp_path / "loose.json", np.diag([0.5 + 4e-10, 0.5]), "state")
        result = runner.invoke(main, ["validate", loose], env={"STATEGEOM_TOL": "100"})
        assert result.exit_code == 0

    @pytest.mark.parametrize("args, env, key, code", [
        ([], {}, "state", 0),
        (["--tol", "1e-3"], {}, "state", 0),
        ([], {}, "bad", 2),
        (["--tol", "1e-3"], {}, "bad", 2),
        (["--tol", "nan"], {}, "state", 2),
        ([], {"STATEGEOM_TOL": "2"}, "state", 0),
    ], ids=["ok", "tol-ok", "not-psd", "tol-not-psd", "tol-nan", "env-ok"])
    def test_an_in_process_call_restores_the_tolerance_scale(self, runner, files, args, env,
                                                             key, code):
        from stategeom import config

        config.set_tolerance_scale(10.0)
        result = runner.invoke(main, [*args, "validate", files[key]], env=env)
        assert result.exit_code == code
        assert config.scaled(1.0) == 10.0

    def test_unsupported_format_rejected(self, runner, files):
        result = runner.invoke(main, ["--format", "csv", "validate", files["state"]])
        assert result.exit_code == 2


def _cli_process(*args):
    """Run the CLI in a fresh interpreter, so stderr is exactly what a user sees."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import stategeom

    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "stategeom.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestOverflowStderr:
    def test_act_alpha_overflow_exits_3_with_one_line(self, files, tmp_path):
        big = write(tmp_path / "big.json", 1e200 * np.eye(2))
        done = _cli_process("act", "alpha", big, files["state"])
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "NumericalError: g xi g† overflows double precision\n"

    def test_flow_overflow_exits_3_with_one_line(self, files, tmp_path):
        z = write(tmp_path / "z.json", np.diag([1.0, -1.0]))
        done = _cli_process("flow", files["state"], z, "--t0", "1000", "--t1", "1000",
                            "--steps", "1")
        assert done.returncode == 3
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("NumericalError: ")
        assert "t = 1000.0" in lines[0]


def test_isotropy_output_pinned_at_n4_rank2(runner, tmp_path):
    # H diag(3/4, 1/4, 0, 0) H with H the orthogonal 4x4 Hadamard / 2: exact entries
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    state = write(tmp_path / "rank2.json", h @ np.diag([0.75, 0.25, 0.0, 0.0]) @ h, "state")
    common = ('"ambient_dim":32,"support_dim":2,"dim_alpha":20,"dim_phi":21,'
              '"dim_complement":12,"max_residual":1.5992985341845774e-15')
    expected = {
        "both": f'{{"action":"both",{common},"orbit_dim_alpha":12,"orbit_dim_phi":11}}',
        "alpha": f'{{"action":"alpha",{common},"orbit_dim_alpha":12}}',
        "phi": f'{{"action":"phi",{common},"orbit_dim_phi":11}}',
    }
    for action, text in expected.items():
        result = runner.invoke(main, ["isotropy", "--action", action, state])
        assert result.exit_code == 0
        assert result.output == text + "\n"


def _exits_2_with_one_line(result):
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ValidationError: "), result.stderr


@pytest.mark.parametrize("command", [
    ["validate", "{tmp}/missing.json"],
    ["act", "beta", "{g}", "{state}"],
    ["validate"],
    ["--tol"],
    ["--no-such-flag", "validate", "{state}"],
], ids=["missing-file", "bad-action", "missing-argument", "tol-without-value", "unknown-flag"])
def test_usage_error_exits_2_with_one_line(runner, files, command):
    _exits_2_with_one_line(runner.invoke(main, [arg.format(**files) for arg in command]))


def test_bare_invocation_prints_help(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.stderr.startswith("Usage: ") and "Commands:" in result.stderr


def test_interrupt_exits_1_with_aborted(runner, files, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("stategeom.cli.classify_orbit", interrupted)
    result = runner.invoke(main, ["validate", files["state"]])
    assert result.exit_code == 1
    assert result.stdout == "" and result.stderr.strip() == "Aborted!"


def test_out_in_missing_directory_exits_2(runner, files, tmp_path):
    target = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["--out", str(target), "validate", files["state"]])
    _exits_2_with_one_line(result)
    assert "cannot write --out" in result.stderr
    assert not target.parent.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    '{"n":1,"entries":[[null,0]]}',
    '{"n":1,"entries":[["a",0]]}',
    '{"n":1,"entries":[[true,0]]}',
    '{"n":1,"entries":[[1' + "0" * 400 + ',0]]}',
    '{"n":1,"entries":5}',
    '{"n":1.7,"entries":[[1,0]]}',
    '{"n":true,"entries":[[1,0]]}',
    b'\xff\xfe',
    '[[1,0]]',
    '{"n":1,"kind":"foo","entries":[[1,0]]}',
], ids=["null", "string", "bool", "huge-int", "entries-number", "n-float", "n-bool", "not-utf8",
        "array", "kind-foo"])
def test_malformed_matrix_file_exits_2(runner, tmp_path, text):
    path = tmp_path / "m.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    _exits_2_with_one_line(runner.invoke(main, ["validate", str(path)]))


_GIBBS = {"kind": "gibbs", "ratio": 0.5}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("changes", [
    {"dims": ["a"]},
    {"dims": 5},
    {"dims": [2.5]},
    {"spec0": {"kind": "gibbs"}},
    {"spec0": {"kind": "gibbs", "ratio": "x"}},
    {"spec0": {"kind": "power", "exponent": None}},
    {"spec0": {"kind": "power", "exponent": -1e308}},
    {"spec0": {"kind": "dirichlet", "alpha": -1.0}},
    {"ceiling": "x"},
    {"ceiling": float("nan")},
], ids=["dims-string", "dims-number", "dims-float", "gibbs-no-ratio", "ratio-string",
        "exponent-null", "exponent-overflow", "alpha-negative", "ceiling-string",
        "ceiling-nan"])
def test_malformed_truncation_config_exits_2(runner, tmp_path, changes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2, 4], "spec0": _GIBBS, "spec1": _GIBBS, **changes}))
    _exits_2_with_one_line(runner.invoke(main, ["--seed", "1", "truncate", str(path)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config", [
    [2, 4],
    {"dims": [2, 4], "spec0": _GIBBS},
], ids=["array", "no-spec1"])
def test_truncation_config_of_the_wrong_shape_exits_2(runner, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    _exits_2_with_one_line(runner.invoke(main, ["truncate", str(path)]))


@pytest.mark.parametrize("args, env", [
    (["--tol", "nan"], {}),
    (["--tol", "inf"], {}),
    (["--tol", "0"], {}),
    (["--tol", "-1"], {}),
    (["--tol", "abc"], {}),
    ([], {"STATEGEOM_TOL": "abc"}),
    ([], {"STATEGEOM_TOL": "nan"}),
    ([], {"STATEGEOM_TOL": "inf"}),
], ids=["flag-nan", "flag-inf", "flag-zero", "flag-negative", "flag-text", "env-text",
        "env-nan", "env-inf"])
def test_bad_tolerance_exits_2(runner, files, args, env):
    _exits_2_with_one_line(runner.invoke(main, [*args, "validate", files["state"]], env=env))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["tangent", "{state}", "{gen}", "--fd-step", "0"],
    ["tangent", "{state}", "{gen}", "--fd-step", "nan"],
    ["flow", "{state}", "{gen}", "--t0", "nan", "--t1", "1", "--steps", "3"],
    ["flow", "{state}", "{gen}", "--t0", "0", "--t1", "inf", "--steps", "3"],
    ["flow", "{state}", "{gen}", "--t0", "0", "--t1", "1", "--steps", "0"],
    ["flow", "{state}", "{gen}", "--t0", "-1e308", "--t1", "1e308", "--steps", "3"],
    ["flow", "{state}", "{gen}", "--t0", "-1e308", "--t1", "1e308", "--steps", "1"],
], ids=["fd-step-zero", "fd-step-nan", "t0-nan", "t1-inf", "steps-zero", "span-overflows",
        "one-point-span-overflows"])
def test_bad_step_or_time_exits_2(runner, files, command):
    args = [arg.format(state=files["state"], gen=files["gen"]) for arg in command]
    _exits_2_with_one_line(runner.invoke(main, args))


# np.linspace counts its points in float64 and addresses at most 2^63 - 1
# bytes: the largest float64 count below 2^63 / 8 is 2^60 - 128
GRID_LIMIT = 2 ** 60 - 128


@pytest.mark.parametrize("steps", [2 ** 60, 2 ** 63 - 1, 10 ** 20],
                         ids=["2^60", "2^63-1", "10^20"])
def test_unaddressable_flow_grid_exits_2_naming_the_limit(runner, files, steps):
    result = runner.invoke(main, ["flow", files["state"], files["gen"], "--t0", "0", "--t1", "1",
                                  "--steps", str(steps)])
    _exits_2_with_one_line(result)
    assert f"steps must be <= {GRID_LIMIT}," in result.stderr


def test_addressable_flow_grid_too_large_to_allocate_exits_3(runner, files):
    result = runner.invoke(main, ["flow", files["state"], files["gen"], "--t0", "0", "--t1", "1",
                                  "--steps", str(GRID_LIMIT)])
    assert result.exit_code == 3
    assert result.stderr.startswith("NumericalError: out of memory: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["act", "phi", "{g3}", "{state}"],
    ["act", "alpha", "{g3}", "{state}"],
    ["act", "alpha", "{g3}", "{identity}"],
    ["tangent", "{state}", "{g3}", "--action", "phi"],
    ["tangent", "{state}", "{g3}", "--action", "alpha"],
    ["flow", "{state}", "{g3}", "--t0", "0", "--t1", "1", "--steps", "3"],
    ["recombine", "{state}", "{g3}", "{identity}", "0.5"],
], ids=["act-phi", "act-alpha", "act-alpha-operator", "tangent-phi", "tangent-alpha", "flow",
        "recombine"])
def test_operand_of_another_dimension_exits_2(runner, files, command):
    g3 = write(files["tmp"] / "g3.json", np.diag([2.0, 1.0, 0.5]))
    args = [arg.format(g3=g3, **files) for arg in command]
    result = runner.invoke(main, args)
    _exits_2_with_one_line(result)
    assert "has dimension" in result.stderr


@pytest.mark.parametrize("command, error", [
    (["connect", "alpha", "{bad}", "{broken}"], "NotPSD"),
    (["connect", "phi", "{bad}", "{broken}"], "NotPSD"),
    (["act", "alpha", "{singular}", "{broken}"], "Singular"),
    (["act", "phi", "{singular}", "{broken}"], "Singular"),
    # the generator is read first
    (["tangent", "--action", "alpha", "{broken}", "{bad_positive}"], "NotPSD"),
    (["tangent", "--action", "phi", "{broken}", "{bad_positive}"], "NotPSD"),
    (["flow", "{bad}", "{broken}", "--t0", "0", "--t1", "1", "--steps", "2"], "NotPSD"),
    (["recombine", "{bad}", "{broken}", "{identity}", "0.5"], "NotPSD"),
], ids=["connect-alpha", "connect-phi", "act-alpha", "act-phi", "tangent-alpha", "tangent-phi",
        "flow", "recombine"])
def test_the_first_bad_file_read_is_the_one_named(runner, files, command, error):
    # the first file fails only on validation and the next is not JSON at all: the
    # first is validated before the next is read
    broken = files["tmp"] / "broken.json"
    broken.write_text("{")
    paths = {"broken": str(broken),
             "singular": write(files["tmp"] / "singular.json", np.diag([1.0, 0.0])),
             "bad_positive": write(files["tmp"] / "bad_positive.json", np.diag([1.0, -1.0]),
                                   "positive")}
    result = runner.invoke(main, [arg.format(**paths, **files) for arg in command])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{error}: "), result.stderr


def _cli_to_dev_full(*args):
    """``_cli_process`` with its stdout on /dev/full, where every write fails."""
    import subprocess
    import sys
    from pathlib import Path

    import stategeom

    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, "-m", "stategeom.cli", *args], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestFailingWrite:
    def test_out_that_cannot_be_written_exits_2(self, files):
        done = _cli_process("--out", "/dev/full", "validate", files["state"])
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("ValidationError: cannot write --out /dev/full: ")
        assert len(done.stderr.splitlines()) == 1

    def test_stdout_that_cannot_be_written_exits_2(self, files):
        done = _cli_to_dev_full("validate", files["state"])
        assert done.returncode == 2
        assert done.stderr.startswith("ValidationError: cannot write stdout: ")
        assert len(done.stderr.splitlines()) == 1

    def test_streamed_gns_that_cannot_be_written_exits_2(self, files):
        done = _cli_to_dev_full("gns", files["state"])
        assert done.returncode == 2
        assert len(done.stderr.splitlines()) == 1


class TestGnsPayloadLimit:
    def test_default_limit_refuses_n13_before_writing(self, runner, tmp_path):
        # a full-rank state at n = 13 asks for 13^6 = 4826809 entries, about 50 MB of text
        from stategeom import config

        assert 12 ** 6 <= config.GNS_MAX_ENTRIES < 13 ** 6
        state = write(tmp_path / "s13.json", np.eye(13) / 13.0, "state")
        out = tmp_path / "gns.json"
        for args in (["gns", state], ["--out", str(out), "gns", state]):
            result = runner.invoke(main, args)
            _exits_2_with_one_line(result)
            assert "above the limit of 4194304" in result.stderr
        assert not out.exists()

    def test_limit_is_inclusive(self, runner, files, monkeypatch):
        # the maximally mixed qubit: 2^2 matrices of dimension 4, 64 entries
        from stategeom import config

        monkeypatch.setattr(config, "GNS_MAX_ENTRIES", 64)
        assert runner.invoke(main, ["gns", files["state"]]).exit_code == 0
        monkeypatch.setattr(config, "GNS_MAX_ENTRIES", 63)
        _exits_2_with_one_line(runner.invoke(main, ["gns", files["state"]]))


_JSON_ONLY = sorted(set(main.commands) - {"flow", "truncate"})


def _parseable_args(command, path):
    """Positional arguments that click's own parsing accepts: a choice's first
    value, an existing file, or a number."""
    args = []
    for param in command.params:
        if isinstance(param, click.Argument):
            if isinstance(param.type, click.Choice):
                args.append(param.type.choices[0])
            else:
                args.append(path if isinstance(param.type, click.Path) else "0.5")
    return args


@pytest.mark.parametrize("name", _JSON_ONLY)
def test_json_only_command_refuses_csv(runner, files, name):
    assert len(_JSON_ONLY) == 7
    args = _parseable_args(main.commands[name], files["state"])
    result = runner.invoke(main, ["--format", "csv", name, *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "ValidationError: --format csv unsupported here (allowed: json)\n"


@pytest.mark.parametrize("command", [["validate"], ["truncate"]])
def test_deeply_nested_json_exits_2(runner, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result = runner.invoke(main, [*command, str(path)])
    _exits_2_with_one_line(result)
    assert "invalid JSON" in result.stderr


def test_negative_seed_exits_2(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2], "spec0": {"kind": "dirichlet"},
                                "spec1": {"kind": "uniform"}}))
    result = runner.invoke(main, ["--seed", "-1", "truncate", str(path)])
    _exits_2_with_one_line(result)
    assert result.stderr == "ValidationError: --seed must be a non-negative integer, got -1\n"


def test_fd_step_whose_quotient_overflows_exits_3(files):
    done = _cli_process("tangent", files["state"], files["gen"], "--fd-step", "1e-310")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == ("NumericalError: finite-difference quotient overflows double "
                           "precision at h = 1e-310\n")


@pytest.mark.parametrize("step", ["1.1e-308", "-1e-16"])
def test_fd_step_lost_to_rounding_exits_3(runner, files, step):
    result = runner.invoke(main, ["tangent", files["state"], files["gen"], "--fd-step", step])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(f"NumericalError: finite-difference quotient at h = {float(step)} "
                               "lost to rounding: 1 + ||value||_F ")


def test_recombine_takes_three_congruences(runner, files, tmp_path, monkeypatch):
    # the images of g1 and g2 (orbits calls prescaled_phi itself), then the
    # recombiner's through phi, shared by residual and mixture; each is one
    # _normalization, the congruence of prescaled_phi and of phi
    from stategeom import actions

    calls = []
    inner = actions._normalization

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(actions, "_normalization", counted)
    g2 = write(tmp_path / "g2.json", np.diag([1.0, 2.0]))
    result = runner.invoke(main, ["recombine", files["state"], files["g"], g2, "0.5"])
    assert result.exit_code == 0
    assert len(calls) == 3


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", [["validate", "{file}"], ["act", "phi", "{file}", "{state}"]],
                         ids=["state-file", "operator-file"])
def test_non_finite_imaginary_slot_exits_2(runner, files, tmp_path, token, command):
    # json.loads reads these tokens as floats; the operand gate refuses them
    kind = "state" if command[0] == "validate" else "operator"
    path = tmp_path / "nonfinite.json"
    path.write_text(f'{{"n":2,"kind":"{kind}","entries":'
                    f'[[0.5,0.0],[0.0,{token}],[0.0,0.0],[0.5,0.0]]}}\n')
    result = runner.invoke(main, [arg.format(file=path, **files) for arg in command])
    _exits_2_with_one_line(result)
    assert result.stderr == "ValidationError: matrix file contains non-finite entries\n"


# (eigh, eigvalsh, svd) per command at n = 6, rank 3.  Validating a file is one
# eigvalsh; the spectrum of a loaded value is one eigh, shared by every question
# asked of it; an output of alpha or phi is certified positive from its input's
# gate record, with no eigensolver, and a flow reads that record, not a spectrum;
# each element of the group takes an svd; recombine's eigh is the square root of
# its mixture.
SOLVER_COUNTS = {
    "validate": (lambda f: ["validate", f["rho"]], (1, 1, 0)),
    "act-alpha": (lambda f: ["act", "alpha", f["g"], f["rho"]], (0, 1, 1)),
    "act-phi": (lambda f: ["act", "phi", f["g"], f["rho"]], (0, 1, 1)),
    "connect-alpha": (lambda f: ["connect", "alpha", f["rho"], f["rho2"]], (2, 2, 1)),
    "connect-phi": (lambda f: ["connect", "phi", f["rho"], f["rho2"]], (2, 2, 1)),
    "isotropy": (lambda f: ["isotropy", f["rho"]], (1, 1, 1)),
    "gns": (lambda f: ["gns", f["rho"]], (1, 1, 0)),
    "tangent": (lambda f: ["tangent", f["rho"], f["gen"]], (0, 1, 0)),
    "recombine": (lambda f: ["recombine", f["tau"], f["g"], f["g2"], "0.25"], (1, 1, 3)),
}


@pytest.mark.parametrize("args, expected", SOLVER_COUNTS.values(), ids=SOLVER_COUNTS)
def test_eigensolver_counts_per_command(runner, tmp_path, monkeypatch, args, expected):
    from sampling import random_hermitian, random_invertible, random_state

    rng = np.random.default_rng(6)
    f = {"rho": write(tmp_path / "rho.json", random_state(rng, 6, 3).matrix, "state"),
         "rho2": write(tmp_path / "rho2.json", random_state(rng, 6, 3).matrix, "state"),
         "g": write(tmp_path / "g.json", random_invertible(rng, 6)),
         "g2": write(tmp_path / "g2.json", random_invertible(rng, 6)),
         "gen": write(tmp_path / "gen.json", 0.3 * random_hermitian(rng, 6)),
         "tau": write(tmp_path / "tau.json", np.eye(6) / 6, "state")}
    counts = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
    for name in counts:
        def counted(*a, _solve=getattr(np.linalg, name), _name=name, **k):
            counts[_name] += 1
            return _solve(*a, **k)

        monkeypatch.setattr(np.linalg, name, counted)
    result = runner.invoke(main, args(f))
    assert result.exit_code == 0, result.output
    assert tuple(counts.values()) == expected


def _child_output(script, *args, threads=None):
    """stdout of ``script`` in a fresh interpreter whose environment sets
    OPENBLAS_NUM_THREADS to ``threads``, or leaves it unset for None."""
    import subprocess
    import sys
    from pathlib import Path

    import stategeom

    src = str(Path(stategeom.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("threads, seen", [(None, "1"), ("3", "3"), ("", "")])
def test_the_cli_defaults_to_one_blas_thread(threads, seen):
    script = "import os, stategeom.cli; print(repr(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert _child_output(script, threads=threads) == f"{seen!r}\n"


def test_a_cli_call_after_numpy_loaded_leaves_the_environment_unchanged(files):
    # OpenBLAS has read its thread count by then; the CLI sets nothing
    script = """
import os, sys
import numpy
before = dict(os.environ)
from click.testing import CliRunner
from stategeom.cli import main
result = CliRunner().invoke(main, ["validate", sys.argv[1]])
assert result.exit_code == 0, result.output
print(dict(os.environ) == before, "OPENBLAS_NUM_THREADS" in os.environ)
"""
    assert _child_output(script, files["state"]) == "True False\n"


def _finite_numbers(payload):
    """Whether every number in a parsed JSON payload is finite."""
    if isinstance(payload, dict):
        return all(_finite_numbers(v) for v in payload.values())
    if isinstance(payload, list):
        return all(_finite_numbers(v) for v in payload)
    return not isinstance(payload, float) or np.isfinite(payload)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["validate", "{huge}"],
    ["isotropy", "{huge}"],
    ["connect", "alpha", "{huge}", "{huge}"],
], ids=["validate", "isotropy", "connect-alpha"])
def test_a_functional_above_half_the_largest_double_is_served(runner, tmp_path, command):
    # entries of 9e307 and 3e307: their sum with the adjoint would overflow
    huge = write(tmp_path / "huge.json", 1.2e308 * np.diag([0.75, 0.25]))
    result = runner.invoke(main, [arg.format(huge=huge) for arg in command])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert _finite_numbers(payload)
    if command[0] == "validate":
        assert payload["rank"] == 2 and payload["kind"] == "positive"


@pytest.mark.filterwarnings("error")
def test_tangent_alpha_above_half_the_largest_double_exits_0(runner, files, tmp_path):
    gen = write(tmp_path / "gen.json", 1e308 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    result = runner.invoke(main, ["tangent", "--action", "alpha", files["target"], gen])
    assert result.exit_code == 0, result.output
    assert _finite_numbers(json.loads(result.output))


@pytest.mark.parametrize("command, matrix, message", [
    # entries of 1.08e308, trace 2.16e308
    (["validate"], 1.2e308 * np.diag([0.9, 0.9]), "trace"),
    # velocity diag(1.35e308, 4.5e307), trace 1.8e308
    (["tangent", "--action", "alpha"], 1.2e308 * np.diag([0.75, 0.25]), "trace"),
], ids=["validate", "tangent-alpha"])
def test_a_reported_trace_that_overflows_exits_3_with_one_line(tmp_path, command, matrix,
                                                                message):
    functional = write(tmp_path / "huge.json", matrix)
    args = [*command, functional]
    if command[0] == "tangent":
        args.append(write(tmp_path / "gen.json", 0.75 * np.eye(2)))
    done = _cli_process(*args)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == f"NumericalError: {message} overflows double precision\n"


@pytest.mark.parametrize("action, scale", [("phi", 1e308), ("alpha", 1e300)])
def test_tangent_that_overflows_exits_3_with_one_line(tmp_path, action, scale):
    # phi: exp(h a) overflows in the finite-difference check; alpha: the
    # velocity itself, 1e600, leaves double range
    base = 1.0 if action == "phi" else 1e300
    state = write(tmp_path / "base.json", base * np.diag([0.75, 0.25]))
    gen = write(tmp_path / "gen.json", scale * np.array([[0.0, 1.0], [1.0, 0.0]]))
    done = _cli_process("tangent", "--action", action, state, gen)
    assert done.returncode == 3
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("NumericalError: "), done.stderr
