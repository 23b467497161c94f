"""Run the genetic search on a transparent mock fitness.

The chromosome encodes a head structure (layer count + widths). Here the
fitness is distance to a known target structure, exp-shaped the same way
the real accuracy fitness is, so selection pressure is easy to see.
"""

import math

import numpy as np

from signrec.ensemble_ga import Chromosome, GAConfig, random_chromosome, run_ga

target = Chromosome((3, 400, 200, 100, 0, 0, 0, 0, 0))
tgt = np.asarray(target.genes, dtype=float)


def accuracy(c):
    return 100.0 - float(np.abs(np.asarray(c.genes, dtype=float) - tgt).mean())


# mutation rates raised well above the production defaults so thirty
# generations show visible refinement instead of a lucky first draw
config = GAConfig(
    population_size=20,
    generations=30,
    layer_gene_mutation_rate=0.05,
    neuron_gene_mutation_rate=0.05,
    seed=5,
)
best, history = run_ga(lambda c: math.exp(accuracy(c) / 2.5), config)

print(f"target structure: {list(target.widths)}")
print(f"\n{'gen':>4}  {'best acc':>9}  best structure")
for row in history:
    if row["generation"] % 5 and row["generation"] != 1:
        continue
    c = Chromosome(tuple(row["best_chromosome"]))
    print(f"{row['generation']:>4}  {accuracy(c):>9.3f}  {list(c.widths)}")

print(f"\nfound: {list(best.widths)} (accuracy {accuracy(best):.3f})")

rng = np.random.default_rng(99)
baseline = max(accuracy(random_chromosome(rng)) for _ in range(20))
print(f"best of 20 random samples: {baseline:.3f}")

series = [row["best_fitness"] for row in history]
print(f"elitism keeps best fitness non-decreasing: "
      f"{all(a <= b for a, b in zip(series, series[1:]))}")
