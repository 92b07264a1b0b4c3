"""Seeded reports compared byte for byte against the files in tests/golden/.

Each entry of GOLDEN is a file name and the `hmqm` arguments that write it.
An entry named in CONFIGS also passes `--config` a file holding that text.
A change that is meant to alter a report regenerates the files with
`python tests/test_golden.py` and says why in its commit; any other change
must leave every byte as it is.
"""

import pathlib
import re
import sys
import tempfile

import pytest

from hmqm.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"

_FORGE = ("forge", "--n", "4", "--q", "100000", "--l", "50", "--trials", "20", "--seed", "1")

GOLDEN = {
    "simulate_ideal.json": ("simulate", "--n", "8", "--q", "100000", "--l", "100",
                            "--trials", "200", "--seed", "7"),
    "simulate_lossy.json": ("simulate", "--n", "8", "--q", "200000", "--l", "100", "--trials", "100",
                            "--beta", "0.05", "--eta", "0.9", "--epsilon", "0.05", "--seed", "11"),
    "simulate_lossy.csv": ("simulate", "--n", "8", "--q", "200000", "--l", "100", "--trials", "100",
                           "--beta", "0.05", "--eta", "0.9", "--epsilon", "0.05", "--seed", "11",
                           "--format", "csv"),
    "simulate_readme_config.json": ("simulate",),
    "forge_honest_noise.json": (*_FORGE, "--strategy", "honest_noise"),
    "forge_register_split.json": (*_FORGE, "--strategy", "register_split"),
    "forge_symmetric_clone.json": (*_FORGE, "--strategy", "symmetric_clone"),
    "forge_mixed_substitution.json": (*_FORGE, "--strategy", "mixed_substitution"),
    "forge_loss_hiding.json": (*_FORGE, "--strategy", "loss_hiding", "--fraction", "0.1"),
    "forge_symmetric_clone.csv": (*_FORGE, "--strategy", "symmetric_clone", "--format", "csv"),
    "forge_config.json": ("forge",),
    "plan.json": ("plan", "--n", "8", "--beta", "0.1", "--security", "1e-6"),
    "plan.csv": ("plan", "--n", "8", "--beta", "0.1", "--security", "1e-6", "--format", "csv"),
    "bounds.csv": ("bounds", "--n", "4:14"),
    "bounds_empty.csv": ("bounds", "--n", "4:3"),
    "coherent.csv": ("coherent", "--alpha-sq", "0.2:1.0:5", "--eta", "0.6", "--epsilon", "0.01"),
}

CONFIGS = {
    # The README's example config, as printed there.
    "simulate_readme_config.json": re.search(r"```ini\n(# simulate\.conf\n.*?)```",
                                             README.read_text(), flags=re.S).group(1),
    # Every forge-only key, and a float key written as an integer.
    "forge_config.json": ("strategy = loss_hiding  # withholds a fraction\nfraction = 0.1\n"
                          "eta = 1\nn = 4\nq = 100000\nl = 50\ntrials = 20\nseed = 1\n"),
}


def golden_argv(name: str, config_dir: pathlib.Path) -> list[str]:
    """The arguments that write report `name`, its config written into config_dir."""
    argv = list(GOLDEN[name])
    if name in CONFIGS:
        config = config_dir / f"{name}.conf"
        config.write_text(CONFIGS[name])
        argv += ["--config", str(config)]
    return argv


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_bytes(tmp_path, name):
    out = tmp_path / name
    assert main([*golden_argv(name, tmp_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_empty_bounds_table_keeps_its_header():
    header = (GOLDEN_DIR / "bounds.csv").read_text().split("\n")[0]
    assert (GOLDEN_DIR / "bounds_empty.csv").read_text() == header + "\n"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(max(main([*golden_argv(name, pathlib.Path(tmp)), "--out", str(GOLDEN_DIR / name)])
                     for name in GOLDEN))
