"""Set-up probe: one fresh interpreter from start to ready.

    python3 perfbench/setup_probe.py CONFIG_JSON_PATH

Imports twistk, parses and validates the config, builds the grid, the
twist form and the starting Kahler structure, then prints ``ready`` and
exits.  run.py times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from twistk.config import parse_config  # noqa: E402
from twistk.geometry import HermitianFormField, KahlerStructure  # noqa: E402
from twistk.grid import PeriodicGrid, euclid_mean_zero, make_trig_field  # noqa: E402


def main(path: str) -> None:
    cfg = parse_config(Path(path).read_text())
    grid = PeriodicGrid(cfg.n, cfg.sizes)
    g0_omega = np.array(cfg.g0_omega, dtype=complex)
    g0_alpha = np.array(cfg.g0_alpha, dtype=complex)
    alpha_pot = make_trig_field(grid, cfg.alpha_potential)
    HermitianFormField.from_potential(grid, g0_alpha, alpha_pot.values)
    omega_pot = make_trig_field(grid, cfg.omega_potential)
    KahlerStructure(grid, g0_omega, euclid_mean_zero(omega_pot.values))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
