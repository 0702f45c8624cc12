"""Workload definitions and the work each one is planned to do.

Every workload trains on synthetic ``complementary`` optical+radar data
(T=12, paper encoder widths) with batches of 128. Sizes are chosen so the
validation split leaves a whole number of full batches, and every workload
sets ``patience = max_epochs`` so early stopping can never change how much
work a run does. Learning rates are chosen so that ``kappa_mean`` varies
little from seed to seed (see README.md).
"""
from __future__ import annotations

from dataclasses import dataclass

BATCH = 128
VALIDATION_FRACTION = 0.1  # TrainConfig default, restated for the plan
VIEWS = ("optical", "radar")
GRID_ENCODERS = ("LSTM", "GRU", "TempCNN", "TAE", "LTAE")
GRID_STRATEGIES = ("Input", "Feature", "Decision", "Hybrid", "Ensemble")
COMPONENT_STRATEGIES = ("Feature", "Decision", "Hybrid")
COMPONENTS = ("gfusion", "multiloss")
# The grid's component cells use a fixed encoder, so the work of a pass does
# not depend on which encoder the data happens to favour. L-TAE is cheap and
# does not learn the XOR label in so few steps, so these cells add no
# seed-to-seed noise to kappa_mean.
GRID_COMPONENT_ENCODER = "LTAE"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str          # "run_cell" or "run_grid"
    cells: tuple           # (encoder, strategy) per run_cell call
    fit_samples: int       # samples per training epoch after validation
    test_samples: int
    epochs: int
    learning_rate: float
    jobs: int

    @property
    def train_samples(self) -> int:
        """Training-part size whose validation split leaves ``fit_samples``."""
        total = self.fit_samples
        while total - _validation_size(total) != self.fit_samples:
            total += 1
        return total

    @property
    def samples(self) -> int:
        return self.train_samples + self.test_samples

    @property
    def test_fraction(self) -> float:
        return self.test_samples / self.samples

    def planned_cells(self) -> tuple:
        """(encoder, strategy) of every training one pass performs."""
        if self.protocol == "run_cell":
            return self.cells
        base = [(enc, strat) for enc in GRID_ENCODERS
                for strat in GRID_STRATEGIES]
        comps = [(GRID_COMPONENT_ENCODER, strat) for _ in COMPONENTS
                 for strat in COMPONENT_STRATEGIES]
        return tuple(base + comps)

    def batches_per_epoch(self) -> int:
        full, rest = divmod(self.fit_samples, BATCH)
        return full + (1 if rest >= 2 else 0)  # size-1 tails are dropped

    def samples_per_epoch(self) -> int:
        rest = self.fit_samples % BATCH
        return self.fit_samples - (1 if rest == 1 else 0)

    def _members(self) -> int:
        """Trained models per pass: an Ensemble trains one per view."""
        return sum(len(VIEWS) if strategy == "Ensemble" else 1
                   for _, strategy in self.planned_cells())

    def planned_steps(self) -> int:
        return self._members() * self.epochs * self.batches_per_epoch()

    def planned_sample_epochs(self) -> int:
        return self._members() * self.epochs * self.samples_per_epoch()


def _validation_size(n: int) -> int:
    """Mirror of the validation split size rule (round half up, 1..n-1)."""
    return min(max(int(n * VALIDATION_FRACTION + 0.5), 1), n - 1)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cell-recurrent",
            why=("GRU/Feature and LSTM/Decision cells: per-timestep tape "
                 "dispatch dominates, no conv; fused recurrent ops show here"),
            protocol="run_cell",
            cells=(("GRU", "Feature"), ("LSTM", "Decision")),
            fit_samples=512, test_samples=1024, epochs=3,
            learning_rate=1e-3, jobs=1),
        Workload(
            name="cell-convattn",
            why=("TempCNN/Input, TAE/Feature, LTAE/Decision cells: few tape "
                 "records, time in GEMMs and conv kernels; im2col shows here"),
            protocol="run_cell",
            cells=(("TempCNN", "Input"), ("TAE", "Feature"),
                   ("LTAE", "Decision")),
            fit_samples=512, test_samples=2048, epochs=4,
            learning_rate=1e-2, jobs=1),
        Workload(
            name="grid-sweep",
            why=("run_grid over all 31 cells, 1 rep, tiny data, jobs=2: "
                 "protocol overhead, model builds, checkpoints, reports and "
                 "the --jobs path"),
            protocol="run_grid",
            cells=(),
            fit_samples=256, test_samples=256, epochs=6,
            learning_rate=1e-2, jobs=2),
    )
}
