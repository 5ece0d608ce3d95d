"""Success-ratio grids for both processes (a quick 1000-trial rendition).

The ratio is the fraction of seeded runs that halt on exactly x sources and
y sinks.  Rows with x = y are provably always 1.  Run with:
python demos/05_success_ratio_tables.py
"""

from taskdag import ProcessKind, table_experiment

PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
N_RANGE = range(5, 11)
TRIALS = 1000
SEED = 2024


def show(kind: ProcessKind) -> None:
    csv = table_experiment(kind, PAIRS, N_RANGE, TRIALS, SEED)
    cells = {}
    for line in csv.strip().split("\n")[1:]:
        pair, n, ratio = line.split(",")
        cells[(pair, int(n))] = ratio
    header = "pair  " + "".join(f"{n:>8d}" for n in N_RANGE)
    print(header)
    for x, y in PAIRS:
        row = "".join(f"{cells[(f'{x}-{y}', n)]:>8s}" for n in N_RANGE)
        print(f"{x}-{y}   {row}")


print(f"== Edge removal, {TRIALS} trials per cell ==")
show(ProcessKind.REMOVAL)
print()
print(f"== Edge addition, {TRIALS} trials per cell ==")
show(ProcessKind.ADDITION)
print()
print("Both grids drift toward 1.000 as n grows; the addition grid provably does.")
