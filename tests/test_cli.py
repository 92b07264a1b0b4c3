import importlib.resources
import json
import pathlib
import re
import shlex

import jsonschema
import numpy as np
import pytest

from hmqm import adversary, bounds
from hmqm.cli import _parse_n_list, _parse_sweep, main, parse_config
from hmqm.matchings import build_disjoint_set
from hmqm.protocol import HonestChannel, VerdictParameters, bank_mint, holder_verify
from hmqm.service import BankService


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


def test_bounds_row_past_the_old_cap(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "16", "--format", "json")
    assert code == 0
    assert err == ""
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["n"] == 16
    assert abs(rows[0]["fidelity_bound"] - (0.5 + 1.0 / 16)) <= 1e-12
    assert rows[0]["fidelity_bound"] >= 0.5 + 1.0 / 16
    assert rows[0]["e_max"] == bounds.e_max(16)


def test_parse_n_list():
    assert _parse_n_list("4:9") == [4, 6, 8]
    assert _parse_n_list("4,6") == [4, 6]
    with pytest.raises(ValueError):
        _parse_n_list("3,4")
    with pytest.raises(ValueError):
        _parse_n_list("2:20")


def test_parse_sweep():
    assert list(_parse_sweep("0.1,0.5")) == [0.1, 0.5]
    grid = _parse_sweep("0.0:1.0:5")
    assert list(grid) == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        _parse_sweep("1:2")


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
    assert float(fields[3]) == 0.026499021160743902
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
    mset = build_disjoint_set(6)
    jsonschema.validate(json.loads(mset.to_json()), load_schema("matching_set"))
    rng = np.random.default_rng(61)
    coin, db = bank_mint(8, 10_000, 10, rng)
    params = VerdictParameters.from_noise(8, 0.0)
    outcome = holder_verify(coin, db, params, HonestChannel(0.0), rng)
    jsonschema.validate(json.loads(outcome.transcript.to_json()), load_schema("transcript"))
    jsonschema.validate(json.loads(outcome.check.to_json()), load_schema("verdict"))
