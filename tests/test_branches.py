"""Concurrent branches (``tensor.branches``) and the CPU budget they share
with the ``--jobs`` pool (``mvcrop.cpus``).

A model with one encoder per view runs its encoders as branches, and the
untaped batch loops (test scoring, validation loss) run their batches as
branches. Where a branch runs, on a helper thread or inline on its caller,
must not change a single bit of a forward, a backward, a prediction or a
loss; and a branch goes to a helper only when a CPU is idle."""
from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mvcrop import cpus, encoders, experiments, fusion
from mvcrop import tensor as T
from mvcrop.data import SynthSpec, synth_generate
from mvcrop.encoders import EncoderConfig
from mvcrop.errors import NumericError
from mvcrop.experiments import ExperimentConfig, _predict_all, run_cell
from mvcrop.fusion import build_model, multi_loss
from mvcrop.rngutil import rep_seed
from mvcrop.training import TrainConfig, _dataset_loss, weighted_cross_entropy
from mvcrop.views import canonical_schema

_VIEWS = [canonical_schema("optical"), canonical_schema("radar")]
_BATCHES = (57, 102, 128, 256)
_CASES = ([(arch, strategy, None)
           for arch in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE")
           for strategy in ("Feature", "Decision", "Hybrid")]
          + [("LTAE", strategy, component)
             for component in ("gfusion", "multiloss")
             for strategy in ("Feature", "Decision", "Hybrid")])


@pytest.fixture
def handoffs(monkeypatch):
    """Every branch may go to a helper whatever its size, and a helper is
    there even on one CPU; returns the list of ``take`` results, the
    idle-CPU checks."""
    taken = []
    take = cpus.BUDGET.take
    monkeypatch.setattr(cpus.BUDGET, "idle", max(cpus.BUDGET.idle, 1))

    def counted():
        taken.append(take())
        return taken[-1]

    monkeypatch.setattr(fusion, "SPREAD_WORK", 0)
    monkeypatch.setattr(cpus.BUDGET, "take", counted)
    return taken


def _run(model, batches, labels):
    """One taped train step per batch, then a prediction of each: the
    probabilities, parameter gradients and buffers after every step."""
    params = model.named_parameters()
    out = []
    for batch, y in zip(batches, labels):
        model.set_mode("train")
        for p in params.values():
            p.grad = None
        with T.Tape() as tape:
            outputs = model(batch, np.random.default_rng(len(y)))
            loss = weighted_cross_entropy(outputs.probabilities, y)
            if model.multiloss_gamma > 0:
                loss = multi_loss(loss, [weighted_cross_entropy(p, y) for p in
                                         outputs.view_probabilities.values()],
                                  model.multiloss_gamma)
            T.backward(loss, tape)
        out.append(("probabilities", outputs.probabilities.data))
        out += [(name, p.grad) for name, p in params.items()]
        out += [(name, b.copy()) for name, b in model.named_buffers().items()]
    out += [("predict", model.predict(batch)) for batch in batches]
    return out


@pytest.mark.parametrize("arch, strategy, component", _CASES,
                         ids=["-".join(filter(None, case)) for case in _CASES])
def test_branches_give_the_bits_of_inline_runs(arch, strategy, component,
                                                handoffs, monkeypatch):
    """At paper widths and odd and even batch sizes, a model whose encoders
    run on helper threads matches, bit for bit and sign of zero included,
    the same model with every branch forced inline: train-mode
    probabilities, every parameter gradient, the batch-norm buffers after
    each step, and predictions."""
    data = np.random.default_rng(21)
    batches = [{v.name: data.standard_normal((b,) + v.shape) for v in _VIEWS}
               for b in _BATCHES]
    labels = [np.arange(b) % 3 for b in _BATCHES]
    runs = []
    for inline in (False, True):
        if inline:
            monkeypatch.setattr(cpus.BUDGET, "take", lambda: False)
        model = build_model(_VIEWS, strategy, EncoderConfig(arch), classes=3,
                            component=component)
        model.initialize(4)
        runs.append(_run(model, batches, labels))
    assert any(handoffs), "no branch went to a helper"
    concurrent, inline = runs
    assert [name for name, _ in concurrent] == [name for name, _ in inline]
    for (name, got), (_, want) in zip(concurrent, inline):
        assert got is not None and want is not None, name
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


@pytest.mark.parametrize("strategy", ["Feature", "Decision", "Hybrid"])
def test_dropout_masks_are_drawn_in_view_order(strategy):
    """The encoders return their embeddings before dropout, and the model
    draws the masks from its generator in a fixed order: each view's
    encoder mask in view order, then the heads' (Feature, Hybrid), or
    view A's encoder mask, head A's, view B's, head B's (Decision)."""
    model = build_model(_VIEWS, strategy, EncoderConfig(
        "LTAE", hidden=8, embedding_dim=8, dense=8, heads=2, key_dim=4,
        attn_width=8), classes=3)
    model.initialize(1)
    model.set_mode("train")
    data = np.random.default_rng(6)
    batch = {v.name: data.standard_normal((6,) + v.shape) for v in _VIEWS}
    got = model(batch, np.random.default_rng(5)).probabilities.data

    rng = np.random.default_rng(5)
    encoded = [model.encoders[v.name](batch[v.name]) for v in _VIEWS]
    if strategy == "Decision":
        want = model.merge_probabilities([
            model.heads[v.name](model.encoders[v.name].drop(z, rng), rng)
            for v, z in zip(_VIEWS, encoded)])
    else:
        zs = [model.encoders[v.name].drop(z, rng) for v, z in zip(_VIEWS, encoded)]
        fused = fusion.merge_embeddings(zs, model.merge_kind)
        if strategy == "Feature":
            want = model.head(fused, rng)
        else:
            want = fusion.average_probabilities([
                model.feature_head(fused, rng),
                fusion.average_probabilities(
                    [model.heads[v.name](z, rng) for v, z in zip(_VIEWS, zs)])])
    assert np.array_equal(got, want.data)


def test_branch_results_come_in_call_order(handoffs):
    got = T.branches([lambda i=i: (time.sleep(0.002 * (3 - i)), i)[1]
                      for i in range(4)], True)
    assert got == [0, 1, 2, 3]


@pytest.mark.parametrize("inline", [False, True], ids=["helpers", "inline"])
def test_a_raising_branch_leaves_no_sub_tape_record_alive(inline, handoffs,
                                                            monkeypatch):
    """A branch that raises under a tape re-raises in the caller once the
    branches on helpers have finished (inline, it stops the later ones);
    the caller's tape gets no fork, and every record that any branch
    taped, the failing one's included, is released."""
    if inline:
        monkeypatch.setattr(cpus.BUDGET, "take", lambda: False)
    x = T.Tensor(np.ones((4, 3)), requires_grad=True)
    outs = []
    finished = threading.Event()

    def slow():
        time.sleep(0.05)
        outs.append(T.mul(x, 3.0))
        finished.set()
        return outs[-1]

    def fails():
        outs.append(T.mul(x, 2.0))
        raise NumericError("branch failed")

    with T.Tape() as tape:
        with pytest.raises(NumericError, match="branch failed"):
            T.branches([fails, slow], True)
        assert finished.is_set() is not inline
        assert tape.records == []
    assert len(outs) == (1 if inline else 2)
    for out in outs:
        rec = out.producer
        assert rec.routes is None and rec.backward is None and rec.grad is None


def test_fork_sweeps_its_sub_tapes_and_releases_them(handoffs):
    """A fork record holds one sub-tape per branch; after ``backward`` the
    leaves hold the serial gradients and every sub-tape is empty."""
    xs = [T.Tensor(np.full(3, float(i + 1)), requires_grad=True) for i in range(3)]
    with T.Tape() as tape:
        ys = T.branches([lambda x=x: T.mul(T.mul(x, x), 2.0) for x in xs], True)
        loss = T.reduce_sum(T.concat(ys, axis=0))
    fork = tape.records[0]
    assert type(fork) is T._Fork and len(tape.records) == 3
    tapes = fork.tapes
    assert [len(sub.records) for sub in tapes] == [2, 2, 2]
    T.backward(loss, tape)
    for i, x in enumerate(xs):
        assert np.array_equal(x.grad, np.full(3, 4.0 * (i + 1)))
    assert tape.records == [] and all(sub.records == [] for sub in tapes)


def test_untaped_branches_record_nothing(handoffs):
    x = T.Tensor(np.ones(3), requires_grad=True)
    ys = T.branches([lambda: T.mul(x, 2.0), lambda: T.mul(x, 3.0)], True)
    assert [y.producer for y in ys] == [None, None]


def test_no_branch_waits_for_a_cpu():
    """With no idle CPU every branch runs inline, on the caller's thread."""
    budget = cpus.CpuBudget(1)
    caller = threading.get_ident()
    assert budget.run([threading.get_ident] * 3, True) == [caller] * 3
    assert budget.idle == 0


def test_spread_false_never_takes_a_cpu():
    budget = cpus.CpuBudget(4)
    caller = threading.get_ident()
    assert budget.run([threading.get_ident] * 3, False) == [caller] * 3
    assert budget.idle == 3


def test_helpers_give_their_cpus_back():
    budget = cpus.CpuBudget(3)
    gate = threading.Barrier(3, timeout=10)
    threads = budget.run([gate.wait, gate.wait, gate.wait], True)
    assert sorted(threads) == [0, 1, 2]  # all three ran at once
    assert budget.idle == 2


def test_budget_loses_no_cpu_under_contention():
    """Eight threads on a three-CPU budget hand branches to helpers and
    hold CPUs as ``--jobs`` tasks do, with thread switches forced often;
    every call's result comes back in order, and the idle count ends where
    it started, so no take or give was lost."""
    budget = cpus.CpuBudget(3)
    calls = [lambda i=i: i for i in range(4)]

    def worker(out):
        for n in range(60):
            if n % 3 == 0:
                with budget.held():
                    out.append(budget.run(calls, True))
            else:
                out.append(budget.run(calls, True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = [[] for _ in range(8)]
        threads = [threading.Thread(target=worker, args=(out,)) for out in outs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert outs == [[[0, 1, 2, 3]] * 60] * 8
    assert budget.idle == 2


def test_jobs_pool_shares_the_budget(tmp_path, monkeypatch):
    """At jobs=2 on a two-CPU budget no branch goes to a helper while both
    workers run; once one worker is left it may hand a branch over. The
    budget ends where it started."""
    monkeypatch.setattr(cpus.BUDGET, "idle", 1)  # two CPUs, the caller on one
    monkeypatch.setattr(fusion, "SPREAD_WORK", 0)
    lock = threading.Lock()
    running = [0]
    checks = []
    held, take = cpus.BUDGET.held, cpus.BUDGET.take

    @contextmanager
    def counted_held():
        with held():
            with lock:
                running[0] += 1
            try:
                yield
            finally:
                with lock:
                    running[0] -= 1

    def checked_take():
        with lock:
            workers = running[0]
        got = take()
        checks.append((workers, got))
        return got

    monkeypatch.setattr(cpus.BUDGET, "held", counted_held)
    monkeypatch.setattr(cpus.BUDGET, "take", checked_take)
    dataset = synth_generate(SynthSpec("complementary", samples=60), seed=2)
    config = ExperimentConfig(
        encoder="GRU", strategy="Feature", repetitions=3, jobs=2,
        output_dir=str(tmp_path / "run"),
        encoder_options={"hidden": 4, "layers": 1, "embedding_dim": 4,
                         "dense": 8},
        train=TrainConfig(batch_size=16, max_epochs=2, patience=2))
    outcome = run_cell(dataset, config)
    assert all(row["status"] == "ok" for row in outcome.records)
    assert [got for workers, got in checks if workers == 2] != []
    assert not any(got for workers, got in checks if workers == 2)
    assert any(got for workers, got in checks if workers < 2)
    assert cpus.BUDGET.idle == 1


# Batch loops: every encoder under every strategy, and L-TAE with each
# component, at paper widths over 701 samples in batches of 128, the last
# of 61 rows.
_LOOP_CASES = ([(arch, strategy, None)
                for arch in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE")
                for strategy in fusion.STRATEGIES]
               + [("LTAE", strategy, component)
                  for component in ("gfusion", "multiloss")
                  for strategy in fusion.COMPONENT_STRATEGIES])
_LOOP_BATCH = 128


@pytest.fixture(scope="module")
def loop_data():
    return synth_generate(SynthSpec("complementary", samples=701), seed=23)


def _loop_model(dataset, arch="TempCNN", strategy="Input", component=None):
    model = build_model(list(dataset.schemas), strategy, EncoderConfig(arch),
                        classes=dataset.classes, component=component)
    model.initialize(8)
    return model


def _loop_outputs(model, dataset):
    """Test-scoring probabilities, as bytes, and the validation loss, as
    ``repr``."""
    weights = np.linspace(0.5, 2.0, dataset.classes)
    return (_predict_all(model, dataset, _LOOP_BATCH).tobytes(),
            repr(_dataset_loss(model, dataset, weights, _LOOP_BATCH)))


@pytest.mark.parametrize("arch, strategy, component", _LOOP_CASES,
                         ids=["-".join(filter(None, case))
                              for case in _LOOP_CASES])
def test_batch_loops_give_the_bytes_of_inline_runs(arch, strategy, component,
                                                   loop_data, handoffs,
                                                   monkeypatch):
    """Scoring and the validation loss with batches on helper threads give
    the bytes of the same loops with every branch forced inline."""
    model = _loop_model(loop_data, arch, strategy, component)
    model.set_mode("train")  # the loops switch it to infer mode
    concurrent = _loop_outputs(model, loop_data)
    assert any(handoffs), "no batch went to a helper"
    monkeypatch.setattr(cpus.BUDGET, "take", lambda: False)
    model.set_mode("train")
    assert concurrent == _loop_outputs(model, loop_data)


def test_a_one_batch_loop_hands_nothing_off(loop_data, handoffs):
    """A single-encoder model over one batch asks for no helper."""
    small = loop_data.subset(np.arange(_LOOP_BATCH))
    _loop_outputs(_loop_model(loop_data), small)
    assert handoffs == []


def _threads_of_predict(model, dataset, monkeypatch, fail_at=None):
    """Wrap ``model.predict`` over ``dataset``: returns ``{batch start row:
    thread name}`` of the batches that finished. Each batch sleeps first,
    so that a helper gets some; the batch that starts at row ``fail_at``
    then raises."""
    done = {}
    predict = model.predict
    rows = dataset.arrays["optical"]

    def traced(batch):
        start = int(np.flatnonzero(np.all(batch["optical"][0] == rows,
                                          axis=(1, 2)))[0])
        time.sleep(0.02)
        if start == fail_at:
            raise NumericError("batch failed")
        out = predict(batch)
        done[start] = threading.current_thread().name
        return out

    monkeypatch.setattr(model, "predict", traced)
    return done


def test_a_failing_batch_re_raises_once_the_helper_has_drained(
        loop_data, handoffs, monkeypatch):
    """The third of six scoring batches raises: every other batch still
    finishes, some on a helper, before the error reaches the caller, and
    the budget ends where it started."""
    dataset = loop_data.subset(np.arange(6 * 100))
    model = _loop_model(loop_data)
    model.set_mode("infer")
    done = _threads_of_predict(model, dataset, monkeypatch, fail_at=200)
    idle = cpus.BUDGET.idle
    with pytest.raises(NumericError, match="batch failed"):
        _predict_all(model, dataset, 100)
    assert sorted(done) == [0, 100, 300, 400, 500]
    assert any(name.startswith("mvcrop-branch") for name in done.values())
    assert cpus.BUDGET.idle == idle


def test_a_failing_scoring_batch_is_an_error_row(tmp_path, handoffs,
                                                 monkeypatch):
    """Through ``_run_one`` the failed scoring of one repetition becomes
    its ``error`` row; the repetitions around it still finish."""
    dataset = synth_generate(SynthSpec("complementary", samples=240), seed=2)
    config = ExperimentConfig(
        encoder="GRU", strategy="Input", repetitions=3, seed_base=3,
        output_dir=str(tmp_path / "run"),
        encoder_options={"hidden": 4, "layers": 1, "embedding_dim": 4,
                         "dense": 8},
        train=TrainConfig(batch_size=16, max_epochs=1, patience=1))
    fit, predict = experiments._fit, fusion.MVLModel.predict
    seeds, scored, lock = [], [], threading.Lock()

    def fit_seed(cell, model, dataset, train_config):
        seeds.append(train_config.seed)
        scored.clear()
        return fit(cell, model, dataset, train_config)

    def failing(self, batch):  # the third batch of repetition 1 raises
        with lock:
            scored.append(None)
            third = len(scored) == 3
        if third and seeds[-1] == rep_seed(3, 1):
            raise NumericError("batch failed")
        return predict(self, batch)

    monkeypatch.setattr(experiments, "_fit", fit_seed)
    monkeypatch.setattr(fusion.MVLModel, "predict", failing)
    idle = cpus.BUDGET.idle
    outcome = run_cell(dataset, config)
    assert any(handoffs), "no batch went to a helper"
    assert [row["status"] for row in outcome.records] == ["ok", "error", "ok"]
    assert "batch failed" in outcome.records[1]["error"]
    assert cpus.BUDGET.idle == idle


def test_batch_loops_share_the_budget(loop_data, monkeypatch):
    """On a two-CPU budget: while two ``--jobs`` workers run, no scoring
    batch goes to a helper. With one caller, a batch does; inside a batch
    on a helper the per-view branches run inline (no take from a helper
    thread succeeds, and both views' encoders run on the batch's thread),
    and at most ``cpus - 1`` successful takes are out at once."""
    monkeypatch.setattr(cpus.BUDGET, "idle", 1)  # two CPUs, the caller on one
    take, add = cpus.BUDGET.take, cpus.BUDGET._add
    lock, out, takes = threading.Lock(), [0], []

    def counted_take():
        got = take()
        with lock:
            out[0] += got
            takes.append((threading.current_thread().name, got, out[0]))
        return got

    def counted_add(count):
        if threading.current_thread().name.startswith("mvcrop-branch"):
            with lock:  # a helper gives its CPU back
                out[0] -= count
        add(count)

    monkeypatch.setattr(cpus.BUDGET, "take", counted_take)
    monkeypatch.setattr(cpus.BUDGET, "_add", counted_add)
    model = _loop_model(loop_data, "TAE", "Feature")
    model.set_mode("infer")
    local, views = threading.local(), []
    call = encoders.Encoder.__call__

    def encoder_call(self, *args):
        views.append(getattr(local, "start", None))
        return call(self, *args)

    monkeypatch.setattr(encoders.Encoder, "__call__", encoder_call)
    done = _threads_of_predict(model, loop_data, monkeypatch)  # six batches
    predict = model.predict

    def in_batch(batch):  # the encoders of one batch see its start row
        local.start = batch["optical"][0].tobytes()
        try:
            return predict(batch)
        finally:
            local.start = None

    monkeypatch.setattr(model, "predict", in_batch)
    with cpus.BUDGET.lent(), cpus.BUDGET.held(), cpus.BUDGET.held():
        _predict_all(model, loop_data, _LOOP_BATCH)
    assert takes and not any(got for _, got, _ in takes)
    assert set(done.values()) == {threading.current_thread().name}

    takes.clear()
    done.clear()
    views.clear()
    _predict_all(model, loop_data, _LOOP_BATCH)
    helped = [start for start, name in done.items()
              if name.startswith("mvcrop-branch")]
    assert helped, "no batch went to a helper"
    assert not any(got for name, got, _ in takes
                   if name.startswith("mvcrop-branch"))
    assert max(held for _, _, held in takes) <= 1
    for start in helped:
        row = loop_data.arrays["optical"][start].tobytes()
        assert views.count(row) == len(model.views)
    assert cpus.BUDGET.idle == 1
