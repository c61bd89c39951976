#!/usr/bin/env python3
"""Plot the figure series of the sweep benches from their memopt.bench.v1
documents.

Usage:
    scripts/reproduce.sh                     # writes reproduction/figures/*.json
    python3 scripts/plot_figures.py [dir]    # writes <dir>/*.png

Reads the documents E2, E6, E8 and E13 write under MEMOPT_JSON_DIR. A
row's first numeric field is x and each later numeric field a y series. A
row that starts with a string labels itself (E6 sweeps two axes in one
document): each label becomes its own figure, named <experiment>_<label>.

Degrades gracefully: without matplotlib it prints the series as text.
"""
import json
import sys
from pathlib import Path

# The benches whose rows sweep one knob, one figure (or one per label) each.
FIGURES = ("e2_bank_sweep", "e6_compression_sweep", "e8_gate_budget", "e13_coherence_sweep")


def load(path: Path):
    """Map each figure name to (x name, x values, {y name: [float]})."""
    figures = {}
    for row in json.loads(path.read_text())["rows"]:
        first = next(iter(row.values()))
        label = first if isinstance(first, str) else ""
        (x_name, x), *ys = [(k, v) for k, v in row.items() if not isinstance(v, str)]
        name = f"{path.stem}_{label}" if label else path.stem
        _, xs, series = figures.setdefault(name, (label or x_name, [], {y: [] for y, _ in ys}))
        xs.append(x)
        for y, value in ys:
            series[y].append(float(value))
    return figures


def main() -> int:
    directory = Path(sys.argv[1] if len(sys.argv) > 1 else "reproduction/figures")
    docs = sorted(p for p in (directory / f"{name}.json" for name in FIGURES) if p.exists())
    if not docs:
        print(f"no figure documents in {directory}; run scripts/reproduce.sh "
              "(it sets MEMOPT_JSON_DIR)")
        return 1

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        have_mpl = True
    except ImportError:
        have_mpl = False
        print("matplotlib not available; printing series instead\n")

    for path in docs:
        for name, (x_label, xs, series) in load(path).items():
            if have_mpl:
                fig, ax = plt.subplots(figsize=(6, 4))
                for y, values in series.items():
                    ax.plot(xs, values, marker="o", label=y)
                ax.set_xlabel(x_label)
                ax.set_title(name)
                ax.grid(True, alpha=0.3)
                ax.legend()
                out = path.with_name(f"{name}.png")
                fig.savefig(out, dpi=150, bbox_inches="tight")
                plt.close(fig)
                print(f"wrote {out}")
            else:
                print(f"-- {name} --")
                for y, values in series.items():
                    pairs = ", ".join(f"{x:g}:{v:.1f}" for x, v in zip(xs, values))
                    print(f"  {y}: {pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
