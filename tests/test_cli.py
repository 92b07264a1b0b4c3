import importlib.resources
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from hmqm import adversary, bounds, coherent, protocol, service
from hmqm.cli import _parse_n_list, _parse_sweep, main, parse_config
from hmqm.matchings import matching_table
from hmqm.protocol import HonestChannel, VerdictParameters, bank_mint, holder_verify
from hmqm.service import BankService
from reference import matching_set_to_json


def load_schema(name):
    ref = importlib.resources.files("hmqm") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "4,6,8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q_norm,fidelity_bound,pair_error_lower,e_min,e_max"
    assert len(lines) == 4
    row4 = lines[1].split(",")
    assert row4[0] == "4"
    assert float(row4[1]) == pytest.approx(0.1875, abs=1e-9)
    assert float(row4[2]) == pytest.approx(0.75, abs=1e-9)
    assert float(row4[4]) == bounds.e_min(4)
    assert float(row4[5]) == 0.2
    e_mins = [float(line.split(",")[4]) for line in lines[1:]]
    assert e_mins == sorted(e_mins)
    assert e_mins[0] < e_mins[1] < e_mins[2]


def test_bounds_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "5")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "bounds", "--n", "2,4")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(capsys, "bounds", "--n", "14:4")
    assert (code, out) == (2, "")
    assert "'14:4' holds no even n" in err


def test_bounds_refuses_n_past_the_certificate_limit(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", str(bounds.MAX_BOUND_N + 2))
    assert code == 2
    assert out == ""
    assert "MAX_BOUND_N" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["plan", "--beta", "0.1", "--security", "1e-6"], ["coherent"]])
def test_huge_n_is_refused_at_the_certificate_limit(capsys, command):
    # e_min takes the n of a certified bound, so an n past any float is a
    # usage error, not an OverflowError.
    code, out, err = run_cli(capsys, *command, "--n", str(10**400))
    assert code == 2
    assert out == ""
    assert "MAX_BOUND_N" in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["4:1000000000000", f"4:{bounds.MAX_BOUND_N + 2}"])
def test_bounds_refuses_a_range_past_the_certificate_limit(capsys, monkeypatch, spec):
    # Refused before the range is built or any row computed.
    def compute(n):
        raise AssertionError(f"computed the row n = {n} of a range it must refuse")

    monkeypatch.setattr(bounds.CloneBound, "compute", compute)
    code, out, err = run_cli(capsys, "bounds", "--n", spec)
    assert code == 2
    assert out == ""
    assert "MAX_BOUND_N" in err and "Traceback" not in err
    assert _parse_n_list("5:9") == [6, 8]
    assert _parse_n_list(f"{bounds.MAX_BOUND_N - 2}:{bounds.MAX_BOUND_N + 1}") == [
        bounds.MAX_BOUND_N - 2, bounds.MAX_BOUND_N]

def test_bounds_row_past_the_old_cap(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "16", "--format", "json")
    assert code == 0
    assert err == ""
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["n"] == 16
    assert abs(rows[0]["fidelity_bound"] - (0.5 + 1.0 / 16)) <= 1e-12
    assert rows[0]["fidelity_bound"] >= 0.5 + 1.0 / 16
    assert rows[0]["e_max"] == bounds.e_max(16)


class Stop(Exception):
    """Raised by a patched callee once it has recorded its arguments."""


def recorder(monkeypatch, owner, name, then=None):
    """Patch owner.name to record each call's arguments by the real callee's
    parameter names, defaults applied, then return then(...) or raise Stop."""
    signature = inspect.signature(getattr(owner, name))
    calls = []

    def callee(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        if then is None:
            raise Stop(name)
        return then(*args, **kwargs)

    monkeypatch.setattr(owner, name, callee)
    return calls


def test_every_subcommand_passes_its_defaults(monkeypatch, capsys):
    # With no optional flag given, each subcommand hands its library callee
    # the defaults its flags declare.
    rows = recorder(monkeypatch, bounds.CloneBound, "compute",
                    then=lambda n: bounds.CloneBound(n, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert main(["bounds"]) == 0
    assert rows == [{"n": n} for n in (4, 6, 8, 10, 12, 14)]

    plans = recorder(monkeypatch, protocol, "plan_parameters")
    with pytest.raises(Stop):
        main(["plan", "--n", "8", "--beta", "0.1", "--security", "1e-6"])
    assert plans == [dict(n=8, beta=0.1, target_security=1e-6, eta=1.0, epsilon=0.0)]

    points = recorder(monkeypatch, coherent, "coherent_pipeline", then=coherent.coherent_pipeline)
    assert main(["coherent"]) == 0
    assert points == [dict(alpha_sq=alpha_sq, n=8, eta_detector=0.6, epsilon=0.001)
                      for alpha_sq in np.linspace(0.05, 1.0, 20)]

    honest = recorder(monkeypatch, protocol, "run_honest_experiment")
    with pytest.raises(Stop):
        main(["simulate"])
    rng = honest[0].pop("rng")
    assert honest == [dict(n=8, q=2_000_000, l=2000, beta=0.0, eta=1.0, epsilon=0.0, trials=100)]
    assert rng.random() == np.random.default_rng(0).random()

    strategy = adversary.builtin_strategy("symmetric_clone", beta=0.1)
    strategies = recorder(monkeypatch, adversary, "builtin_strategy", then=adversary.builtin_strategy)
    forged = recorder(monkeypatch, adversary, "run_forging_experiment")
    with pytest.raises(Stop):
        main(["forge"])
    assert strategies == [dict(name="symmetric_clone", beta=0.1, fraction=0.0)]
    rng = forged[0].pop("rng")
    assert forged == [dict(n=4, q=4_000_000, l=2000, strategy=strategy, trials=50,
                           params=protocol.VerdictParameters.from_noise(4, 0.1, 1.0, 0.0))]
    assert rng.random() == np.random.default_rng(0).random()

    servers = recorder(monkeypatch, service, "BankService")
    with pytest.raises(Stop):
        main(["serve"])
    assert servers == [dict(host="127.0.0.1", port=7700, journal_path=None)]

    monkeypatch.setattr(service.BankClient, "__post_init__", lambda self: None)
    monkeypatch.setattr(service.BankClient, "close", lambda self: None)
    mints = recorder(monkeypatch, service.BankClient, "mint")
    with pytest.raises(Stop):
        main(["verify", "--connect", "127.0.0.1:7700"])
    client = mints[0].pop("self")
    assert (client.host, client.port) == ("127.0.0.1", 7700)
    assert mints == [dict(n=8, q=10_000, l=10, seed=None, beta=0.0, eta=1.0, epsilon=0.0)]

    for argv in (["plan", "--n", "8", "--beta", "0.1"], ["verify"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2


def test_parse_n_list():
    assert _parse_n_list("4:9") == [4, 6, 8]
    assert _parse_n_list("4,6") == [4, 6]
    with pytest.raises(ValueError):
        _parse_n_list("3,4")
    with pytest.raises(ValueError):
        _parse_n_list("2:20")
    for spec in ("14:4", "4:3"):
        with pytest.raises(ValueError, match=spec):
            _parse_n_list(spec)


def test_parse_sweep():
    assert list(_parse_sweep("0.1,0.5")) == [0.1, 0.5]
    grid = _parse_sweep("0.0:1.0:5")
    assert list(grid) == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        _parse_sweep("1:2")
    with pytest.raises(ValueError, match="0.1:0.5:0"):
        _parse_sweep("0.1:0.5:0")
    with pytest.raises(ValueError, match="0.1:0.5:-1"):
        _parse_sweep("0.1:0.5:-1")
    # 10^15 float64 values are 7 PiB, past any address space: the allocation
    # is refused at once, and the sweep with it.
    with pytest.raises(ValueError, match="0.1:0.5:1000000000000000"):
        _parse_sweep("0.1:0.5:1000000000000000")


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    args = ("simulate", "--n", "4", "--q", "10000", "--l", "10",
            "--beta", "0.1", "--trials", "50", "--seed", "7")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    jsonschema.validate(report, load_schema("simulate_report"))
    assert report["trials"] == 50
    assert report["valid"] + report["invalid"] + report["aborted"] == 50


def test_simulate_noiseless_always_valid(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--q", "10000", "--l", "10",
                           "--trials", "20", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["valid_rate"] == 1.0
    jsonschema.validate(report, load_schema("simulate_report"))


def test_simulate_csv_header(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "4", "--q", "10000", "--l", "10",
                           "--trials", "5", "--format", "csv")
    assert code == 0
    header = out.split("\n", 1)[0]
    assert header == ("n,q,l,beta,eta,epsilon,trials,valid,invalid,aborted,"
                      "valid_rate,invalid_rate,abort_rate,reject_bound,abort_bound")


def test_parse_config_keeps_strings_and_drops_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4  # dimension\nbeta = 0.1\n\n# full-line comment\nstrategy = symmetric_clone\n")
    values = parse_config(str(cfg))
    assert values == {"n": "4", "beta": "0.1", "strategy": "symmetric_clone"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_config(str(bad))


@pytest.mark.parametrize("command", ["simulate", "forge"])
@pytest.mark.parametrize("key, value", [("l", "20.7"), ("n", "8.9"), ("seed", "1.9"),
                                        ("trials", "2.5"), ("q", "1e6"), ("beta", "low")])
def test_config_value_is_read_with_its_flag_type(tmp_path, capsys, command, key, value):
    # A config value the flag would refuse is refused too, naming the key,
    # instead of being truncated to fit.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 4\nq = 100000\nl = 10\ntrials = 1\n{key} = {value}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"'{key}'" in err
    with pytest.raises(SystemExit) as exc_info:
        main([command, f"--{key}", value])
    assert exc_info.value.code == 2


def test_config_file_drives_simulate(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 4\nq = 10000\nl = 10\nbeta = 0.1\ntrials = 50\nseed = 3\n")
    from_config, from_flags = tmp_path / "c.json", tmp_path / "f.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(from_config)]) == 0
    assert main(["simulate", "--n", "4", "--q", "10000", "--l", "10", "--beta", "0.1",
                 "--trials", "50", "--seed", "3", "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 4\nq = 10000\nl = 10\ntrials = 5\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--trials", "2")
    assert code == 0
    assert json.loads(out)["trials"] == 2


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 4\nwarp_factor = 9\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err
    assert "warp_factor" in err


def test_plan_json(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "8", "--beta", "0.1", "--security", "1e-6")
    assert code == 0
    plan = json.loads(out)
    jsonschema.validate(plan, load_schema("plan"))
    assert plan["l"] == 2132
    assert plan["q_min"] == 2_132_000
    assert plan["achieved"] <= 1e-6


def test_plan_csv_header(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "8", "--beta", "0.1",
                           "--security", "1e-6", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,beta,eta,epsilon,c,delta,l,q_min,T,error_floor,target,achieved"
    assert lines[1].split(",")[6] == "2132"


def test_plan_near_floor_needs_tens_of_thousands(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "8", "--beta", "0.17", "--security", "1e-6")
    assert code == 0
    l = json.loads(out)["l"]
    assert l == 14366
    assert 10_000 < l < 100_000


def test_plan_infeasible_exit_code(capsys):
    code, _, err = run_cli(capsys, "plan", "--n", "8", "--beta", "0.3", "--security", "1e-6")
    assert code == 3
    assert "infeasible" in err


@pytest.mark.parametrize("beta", ["-0.1", "nan", "inf"])
def test_plan_refuses_a_beta_out_of_range(capsys, beta):
    code, out, err = run_cli(capsys, "plan", "--n", "8", "--beta", beta, "--security", "1e-6")
    assert code == 2
    assert out == ""
    assert f"error: beta must be finite and >= 0, got {float(beta)}" in err


def test_plan_at_a_beta_above_the_floor_is_infeasible(capsys):
    code, _, err = run_cli(capsys, "plan", "--n", "8", "--beta", "0.6", "--security", "1e-6")
    assert code == 3
    assert "infeasible" in err and "beta=0.6" in err


def test_forge_json(capsys):
    code, out, _ = run_cli(capsys, "forge", "--n", "4", "--l", "200", "--trials", "5", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema("forge_report"))
    assert report["strategy"] == "symmetric_clone"
    assert report["q"] == 400_000  # default q = 2000 * l, so T = 2
    assert report["both_accept_rate"] == 0.0
    assert abs(report["mean_white_error1"] - bounds.e_max(4)) < 0.05


def test_forge_csv(capsys):
    code, out, _ = run_cli(capsys, "forge", "--n", "4", "--l", "50", "--trials", "3",
                           "--seed", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "strategy,n,q,l,trials,accept1_rate,accept2_rate,both_accept_rate,analytic_bound"
    assert lines[1].startswith("symmetric_clone,4,100000,50,3,")


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("strategy", ["honest_noise", "register_split"])
def test_forge_json_writes_null_for_a_side_never_scored(capsys, strategy):
    # Verifier 2 is never sent a white position under these strategies, so
    # its white error has no trial to average: null, not NaN (which is not JSON).
    code, out, _ = run_cli(capsys, "forge", "--strategy", strategy, "--n", "4", "--l", "50",
                           "--trials", "3", "--seed", "5")
    assert code == 0
    report = json.loads(out, parse_constant=refuse_constant)
    jsonschema.validate(report, load_schema("forge_report"))
    assert report["mean_white_error2"] is None
    assert isinstance(report["mean_white_error1"], float)
    if strategy == "honest_noise":  # verifier 2 gets nothing at all
        assert report["mean_overall_error2"] is None


@pytest.mark.parametrize("strategy", sorted(adversary.BUILTIN_STRATEGIES))
def test_forge_runs_every_builtin_strategy(capsys, strategy):
    code, out, _ = run_cli(capsys, "forge", "--strategy", strategy, "--n", "4", "--l", "10",
                           "--trials", "2", "--seed", "3")
    assert code == 0
    report = json.loads(out, parse_constant=refuse_constant)
    jsonschema.validate(report, load_schema("forge_report"))
    assert report["strategy"] == strategy


def test_forge_rejects_unknown_strategy():
    with pytest.raises(SystemExit) as exc_info:
        main(["forge", "--strategy", "bogus"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "forge"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_experiments_refuse_fewer_than_one_trial(capsys, command, trials):
    code, out, err = run_cli(capsys, command, "--l", "10", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("argv", [["bounds", "--n", "4"], ["coherent"],
                                  ["plan", "--n", "8", "--beta", "0.1", "--security", "1e-6"]])
def test_only_randomized_commands_take_a_seed(argv):
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--seed", "1"])
    assert exc_info.value.code == 2


def test_coherent_single_point(capsys):
    code, out, _ = run_cli(capsys, "coherent", "--alpha-sq", "0.25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha_sq,p0,p1,p2plus,effective_eta,effective_adversary_error"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.25
    assert float(fields[1]) == 0.7788007830714049
    assert float(fields[2]) == 0.19470019576785122
    assert float(fields[3]) == 0.026499021160743916
    assert float(fields[4]) == 0.13271953015715707
    assert 0.0 < float(fields[5]) < 0.25


def test_coherent_undefined_point_is_an_empty_cell(capsys):
    # The README's sweep starts where 3 epsilon >= eta_eff: that row is
    # reported infeasible, an empty CSV cell or JSON null, not an error.
    code, out, _ = run_cli(capsys, "coherent", "--alpha-sq", "0.05,0.5", "--eta", "0.6", "--epsilon", "0.01")
    assert code == 0
    first, second = out.strip().split("\n")[1:]
    assert first.endswith(",") and not second.endswith(",")
    code, out, _ = run_cli(capsys, "coherent", "--alpha-sq", "0.05", "--epsilon", "0.01", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["effective_adversary_error"] is None


@pytest.mark.parametrize("flags", [("--alpha-sq", "inf", "--format", "json"), ("--alpha-sq", "nan"),
                                   ("--alpha-sq", "-1"), ("--epsilon", "nan"),
                                   ("--n", "2", "--alpha-sq", "0.05", "--epsilon", "0.01"),
                                   ("--n", str(bounds.MAX_BOUND_N + 2), "--alpha-sq", "0.05", "--epsilon", "0.01")])
def test_coherent_refuses_non_finite_inputs(capsys, flags):
    # An infinite, NaN or negative |alpha|^2 and a NaN epsilon are usage
    # errors, not a row of Infinity or nan, nor a point reported merely
    # infeasible; a bad |alpha|^2 is named, not a math domain error.  So is
    # an n with no certified bound, also where the loss correction is
    # undefined and the row would carry no floor.
    code, out, err = run_cli(capsys, "coherent", *flags)
    assert (code, out) == (2, "")
    assert "error:" in err
    assert f"{flags[0][2:].replace('-', '_')} must be" in err


def test_readme_command_examples_succeed():
    # Every `hmqm` line of the README's sh blocks, except the two that need
    # a running service, exits 0.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    commands = [shlex.split(line, comments=True)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("hmqm ")]
    commands = [argv for argv in commands if argv[0] not in ("serve", "verify")]
    assert {argv[0] for argv in commands} == {"bounds", "plan", "simulate", "forge", "coherent"}
    for argv in commands:
        assert main(argv) == 0, argv


def test_coherent_default_sweep(capsys):
    code, out, _ = run_cli(capsys, "coherent")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 21  # header + 20 sweep points
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values[0] == 0.05
    assert values[-1] == 1.0


def test_out_to_missing_directory_is_io_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "4", "--out", "/nonexistent/dir/x.csv")
    assert code == 4
    assert "i/o error" in err


def test_bad_listen_address(capsys, tmp_path):
    code, _, err = run_cli(capsys, "serve", "--listen", "nocolon")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--connect", "nocolon")
    assert code == 2
    # getaddrinfo would wrap 70000 to port 4464, and bind would overflow.
    code, _, err = run_cli(capsys, "serve", "--listen", "127.0.0.1:70000", "--data", str(tmp_path))
    assert code == 2 and "0-65535" in err and not list(tmp_path.iterdir())
    code, _, err = run_cli(capsys, "verify", "--connect", "127.0.0.1:70000")
    assert code == 2 and "0-65535" in err


def test_verify_against_live_service(tmp_path, capsys):
    svc = BankService(journal_path=str(tmp_path / "j.ndjson"))
    svc.start()
    try:
        host, port = svc.address
        out_file = tmp_path / "verdict.json"
        code = main(["verify", "--connect", f"{host}:{port}", "--n", "8",
                     "--q", "10000", "--l", "10", "--seed", "5", "--out", str(out_file)])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["verdict"] == "valid"
        assert report["valid"] is True
        assert report["s"] == 1
        jsonschema.validate({k: v for k, v in report.items() if k != "verdict"},
                            load_schema("verdict"))
        # A seed names a coin, so the CSV run mints its own.
        code, out, _ = run_cli(capsys, "verify", "--connect", f"{host}:{port}", "--n", "8",
                               "--q", "10000", "--l", "10", "--seed", "6", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "verdict,valid,s,T,correct_count,l_prime,threshold"
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["verdict"] == "valid" and cells["valid"] == "True"
        assert cells["s"] == "1" and cells["T"] == "1" and cells["l_prime"] == "10"
        assert float(cells["threshold"]) == report["threshold"]
        # A lossy round aborts before the bank checks it: its cells stay empty.
        code, out, _ = run_cli(capsys, "verify", "--connect", f"{host}:{port}", "--n", "8",
                               "--q", "10000", "--l", "10", "--eta", "0.6", "--epsilon", "0.01",
                               "--seed", "1", "--format", "csv")
        assert code == 0
        assert out.strip().split("\n")[1] == "aborted,,,,,,"
    finally:
        svc.stop()


def test_verify_mints_unseeded_unless_asked(tmp_path, capsys):
    svc = BankService(journal_path=str(tmp_path / "j.ndjson"))
    svc.start()
    try:
        connect = ["verify", "--connect", "{}:{}".format(*svc.address), "--q", "10000", "--l", "10"]
        for _ in range(2):
            code, out, err = run_cli(capsys, *connect)
            assert (code, err) == (0, "")
            assert json.loads(out)["verdict"] == "valid"
        assert len(svc.coins) == 2
        assert run_cli(capsys, *connect, "--seed", "3")[0] == 0
        # The bank refuses a seed it has minted: a refused request, not an I/O failure.
        code, _, err = run_cli(capsys, *connect, "--seed", "3")
        assert code == 2
        assert err.startswith("error: bad_request: coin ") and "already exists" in err
    finally:
        svc.stop()


def test_verify_connection_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--connect", "127.0.0.1:1")
    assert code == 4
    assert "i/o error" in err


def test_shipped_schemas_cover_wire_objects():
    matching_set_schema = json.loads((pathlib.Path(__file__).parent / "matching_set.schema.json").read_text())
    jsonschema.validate(json.loads(matching_set_to_json(matching_table(6))), matching_set_schema)
    rng = np.random.default_rng(61)
    coin, db = bank_mint(8, 10_000, 10, rng)
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    jsonschema.validate(json.loads(outcome.transcript.to_json()), load_schema("transcript"))
    jsonschema.validate(json.loads(json.dumps(outcome.check.to_dict())), load_schema("verdict"))


# Names that moved to the tests' reference physics (tests/reference.py), or
# left the package when only tests called them: module, or module:class ->
# attribute names.  The matching classes are gone with their methods: the
# canonical set is `matchings.matching_table` and its inverse.
MOVED_NAMES = {
    "hmqm.matchings": ["diagnose", "validate", "Matching", "DisjointMatchingSet", "build_disjoint_set"],
    "hmqm.protocol:VerificationTranscript": ["from_json"],
    "hmqm.protocol:CheckResult": ["to_json"],
    "hmqm.bounds": ["pair_average", "symmetric_clone", "ClonePair", "clone_shrink_factor",
                    "depolarization_for_error"],
    "hmqm.coherent": ["single_photon_block_amplitudes", "single_photon_state_equivalence"],
    "hmqm.adversary": ["loss_hiding_weight_check"],
    "hmqm.protocol": ["secret_bits", "matching_set", "_pair_nodes", "_pair_to_alpha", "_finish_round"],
}
IMPORT_PROBE = """
import importlib, importlib.resources, importlib.util, json, sys
import hmqm.cli
report = {"file": hmqm.__file__, "qrg_loaded": "hmqm.qrg" in sys.modules,
          "tables": hmqm.matchings.matching_table.cache_info().currsize,
          "qrg_found": importlib.util.find_spec("hmqm.qrg") is not None,
          "schema": (importlib.resources.files("hmqm") / "schemas" / "matching_set.schema.json").is_file(),
          "left": []}
for owner, names in json.loads(sys.argv[1]).items():
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    obj = getattr(obj, cls) if cls else obj
    report["left"] += [f"{owner}.{name}" for name in names if hasattr(obj, name)]
print(json.dumps(report))
"""


def test_the_package_ships_no_reference_physics(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(MOVED_NAMES)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert pathlib.Path(report["file"]).is_relative_to(src)
    assert not report["qrg_loaded"] and not report["qrg_found"]
    assert report["tables"] == 0  # a matching table is built at its first use, not at import
    assert not report["schema"]
    assert report["left"] == []
