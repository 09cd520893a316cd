"""ASCII report formatting shared by the CLI, EXPERIMENTS.md and examples.

Each of the paper's figures, and each ablation sweep, is a table of rows
(benchmark x series); these helpers render them consistently.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def fmt(value: Cell, width: int = 0) -> str:
    """Render one cell: floats to 3 significant decimals, percents as-is."""
    if isinstance(value, float):
        text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width) if width else text


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """A fixed-width ASCII table with a header rule."""
    rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def percent(value: float) -> str:
    """Render a 0..1 fraction as a percentage with one decimal."""
    return f"{100.0 * value:.1f}%"


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for empty input)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def suite_rows(
    per_benchmark: Dict[str, Dict[str, float]],
    int_names: Sequence[str],
    fp_names: Sequence[str],
) -> List[List[Cell]]:
    """Benchmark rows plus the paper's INT / FP / TOTAL average rows.

    ``per_benchmark`` maps benchmark name -> column label -> value; the
    column order is taken from the first benchmark's dict.
    """
    if not per_benchmark:
        return []
    columns = list(next(iter(per_benchmark.values())).keys())
    rows: List[List[Cell]] = []
    for name, values in per_benchmark.items():
        rows.append([name] + [values[c] for c in columns])

    def avg_row(label: str, names: Sequence[str]) -> List[Cell]:
        present = [n for n in names if n in per_benchmark]
        return [label] + [
            mean([per_benchmark[n][c] for n in present]) for c in columns
        ]

    rows.append(avg_row("INT", int_names))
    rows.append(avg_row("FP", fp_names))
    rows.append(avg_row("TOTAL", list(int_names) + list(fp_names)))
    return rows
