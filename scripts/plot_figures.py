#!/usr/bin/env python3
"""Plot the figure-data CSVs exported by the benches.

Usage:
    scripts/reproduce.sh                     # writes reproduction/figures/*.csv
    python3 scripts/plot_figures.py [dir]    # writes <dir>/*.png

A CSV whose first column is not numeric labels its rows (E6 sweeps two
axes in one file): each label becomes its own figure, named
<csv stem>_<label>, with the next column as x.

Degrades gracefully: without matplotlib it prints the series as text,
with x as written in the CSV.
"""
import csv
import sys
from pathlib import Path


def is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load(path: Path):
    """Return (x_name, y_names, figures); figures maps a row label ("" for
    an unlabelled CSV) to (x values as written, {y name: [float]})."""
    with path.open() as f:
        header, *rows = csv.reader(f)
    labelled = bool(rows) and not is_number(rows[0][0])
    if labelled:
        header = header[1:]
    x_name, y_names = header[0], header[1:]
    figures = {}
    for row in rows:
        label, values = (row[0], row[1:]) if labelled else ("", row)
        xs, ys = figures.setdefault(label, ([], {y: [] for y in y_names}))
        xs.append(values[0])
        for name, value in zip(y_names, values[1:]):
            ys[name].append(float(value))
    return x_name, y_names, figures


def main() -> int:
    directory = Path(sys.argv[1] if len(sys.argv) > 1 else "reproduction/figures")
    csvs = sorted(directory.glob("*.csv"))
    if not csvs:
        print(f"no CSV files in {directory}; run scripts/reproduce.sh with "
              "MEMOPT_CSV_DIR set (reproduce.sh does this for you)")
        return 1

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        have_mpl = True
    except ImportError:
        have_mpl = False
        print("matplotlib not available; printing series instead\n")

    for path in csvs:
        x_name, y_names, figures = load(path)
        for label, (xs, ys) in figures.items():
            name = f"{path.stem}_{label}" if label else path.stem
            if have_mpl:
                fig, ax = plt.subplots(figsize=(6, 4))
                for y in y_names:
                    ax.plot([float(x) for x in xs], ys[y], marker="o", label=y)
                ax.set_xlabel(label or x_name)
                ax.set_title(name)
                ax.grid(True, alpha=0.3)
                ax.legend()
                out = path.with_name(f"{name}.png")
                fig.savefig(out, dpi=150, bbox_inches="tight")
                plt.close(fig)
                print(f"wrote {out}")
            else:
                print(f"-- {name} --")
                for y in y_names:
                    pairs = ", ".join(f"{x}:{v:.1f}" for x, v in zip(xs, ys[y]))
                    print(f"  {y}: {pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
