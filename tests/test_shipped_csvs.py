"""Every shipped config reproduces its recorded CSV.

``tests/data/<name>.csv`` is what ``mimodsp run --config configs/<name>.yaml``
wrote.  A run must match it line for line, the ``#`` lines that echo the
resolved config and the seed included; only the version line may differ.
A change that moves a shipped CSV on purpose re-records its copy and says
so.  The Monte-Carlo studies must also not depend on ``--workers``.
"""
from pathlib import Path

import pytest

from mimodsp.cli import build_experiment, load_config, write_csv

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.yaml"))
DATA = Path(__file__).resolve().parent / "data"
MONTE_CARLO = ("ber", "fxp_sweep", "outage")


def _lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("# version: ")]


def _run(config, tmp_path, workers=None):
    _, runner, echo, _ = build_experiment(load_config(str(config)),
                                          workers=workers)
    out = tmp_path / f"{config.stem}-{workers}.csv"
    write_csv(str(out), echo, *runner())
    return _lines(out)


def _rows(lines):
    return [line for line in lines if not line.startswith("#")]


def test_every_config_has_a_copy():
    assert sorted(p.stem for p in DATA.glob("*.csv")) == \
        sorted(p.stem for p in CONFIGS)


@pytest.mark.filterwarnings("ignore::mimodsp.equalization.NsaDivergenceWarning")
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_its_csv(config, tmp_path):
    lines = _run(config, tmp_path)
    assert lines == _lines(DATA / f"{config.stem}.csv")
    if config.stem in MONTE_CARLO:
        # that run was serial; the echo names the worker count, so only
        # the data rows compare
        assert "# workers: 1" in lines
        parallel = _run(config, tmp_path, workers=2)
        assert _rows(parallel) == _rows(lines)
