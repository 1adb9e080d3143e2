"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Criterion 4's attribution clauses (argmax hit rate and the 10x MSE
contrast) are implemented exactly as stated; see ROADMAP.md
for the analysis of why the column-sum training objective cannot
satisfy them on this architecture.
"""

import time

import numpy as np
import pytest

from hgcn import autodiff as ad
from hgcn import run as runmod
from hgcn.autodiff import Tape, constant, parameter
from hgcn.data import load_checkpoint, save_checkpoint
from hgcn.encoder import TrainableLookup, token_rows, tokenize
from hgcn.graph import Chains, propagate, reconstruct_token_label
from hgcn.metrics import decode_threshold, decode_topk, evaluate
from hgcn.model import ModelParams, batch_loss, build_target, forward
from hgcn.run import RunConfig
from hgcn.synth import generate_synthetic_corpus

from oracles import (
    add,
    brute_force_threshold,
    brute_force_topk,
    build_chain_adjacency,
    elementwise_mul,
    finite_difference_grad,
    max_rel_err,
    normalize_adjacency,
    normalize_adjacency_node,
    propagate_one,
)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_config(label_names, tmp, **overrides):
    values = dict(
        label_names=label_names,
        num_layers=2,
        hidden=64,
        input_dim=64,
        activation="tanh",
        lr=0.02,
        seed=0,
        decode="threshold",
        threshold=0.15,
        epochs=120,
        batch_size=10,
        max_len=32,
        out_dir=str(tmp),
    )
    values.update(overrides)
    return RunConfig(**values)


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Criterion-4 corpus and trained model, shared with criteria 5-7."""
    train, label_names, trigger_map = generate_synthetic_corpus(
        5, 60, 500, seed=0, min_fillers=3, max_fillers=6, id_prefix="tr")
    test, _, _ = generate_synthetic_corpus(
        5, 60, 100, seed=1, min_fillers=3, max_fillers=6, id_prefix="te")
    cfg = run_config(label_names, tmp_path_factory.mktemp("c4"))
    start = time.monotonic()
    params, provider, vocab, _ = runmod.train(train, cfg)
    elapsed = time.monotonic() - start
    return dict(train=train, test=test, label_names=label_names,
                trigger_map=trigger_map, cfg=cfg, params=params,
                provider=provider, vocab=vocab, elapsed=elapsed)


def test_criterion_1_gradient_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = {"op": 0.0, "batched": 0.0}

    def check(loss_fn, *shapes, kind="op"):
        args = [rng.normal(size=s) for s in shapes]
        nodes = [parameter(a) for a in args]
        with Tape() as tape:
            tape.backward(loss_fn(*nodes))
        for i, node in enumerate(nodes):
            def f(x, i=i):
                vals = list(args)
                vals[i] = x
                with Tape():
                    out = loss_fn(*[parameter(v) for v in vals])
                return float(out.value[0, 0])
            worst[kind] = max(worst[kind],
                              max_rel_err(node.grad, finite_difference_grad(f, args[i])))

    target23 = rng.uniform(0, 1, (2, 3))
    target53 = np.random.default_rng(1).uniform(0, 1, (5, 3))
    for _ in range(20):
        check(lambda a, b: ad.mse_loss(ad.matmul(a, b), target23), (2, 4), (4, 3))
        check(lambda a, b: ad.mse_loss(add(a, b), target23), (2, 3), (2, 3))
        check(lambda a, b: ad.mse_loss(elementwise_mul(a, b), target23), (2, 3), (2, 3))
        check(lambda a: ad.mse_loss(ad.activation(a, "tanh"), target23), (2, 3))
        check(lambda a: ad.mse_loss(ad.softmax_row(a), target23[:1]), (1, 3))
        check(lambda a: ad.mse_loss(
            normalize_adjacency_node(elementwise_mul(a, a)), np.eye(3)), (3, 3))
        check(lambda h: ad.mse_loss(reconstruct_token_label(h, Chains([2], 2, 3)),
                                    target23[None]), (5, 5))
    # after the loop above, so the other ops keep their random draws;
    # squared edges: a token-label block is never negative
    for _ in range(20):
        check(lambda h, e: ad.mse_loss(propagate_one(h, elementwise_mul(e, e)),
                                       target53), (5, 3), (3, 2))
    # the batched forms, after the loops above for the same reason: a
    # ragged batch of lengths 3 and 1 padded to 3 token rows, with 2 labels,
    # whose node features are its 6 token rows over 2 label rows per sample
    # (or 2 shared ones); padded rows and edges are zeroed as the model pads them
    chains = Chains([3, 1], 3, 2)
    pad = np.ones((10, 1))
    pad[4:6] = 0.0
    edge_pad = constant(chains.real[..., None] * np.ones((2, 3, 2)))
    target2 = rng.uniform(0, 1, (2, 2))
    target10 = rng.uniform(0, 1, (10, 3))

    def padded(h):
        return elementwise_mul(h, constant(np.broadcast_to(pad[:len(h.value)], h.value.shape)))

    def shared_layer(h):
        # label rows the batch shares, as the second layer reads them
        h = padded(h)
        return ad.mse_loss(propagate(h, reconstruct_token_label(h, chains), chains), target10)

    for _ in range(20):
        check(lambda h, e: ad.mse_loss(propagate(
            padded(h), elementwise_mul(e, elementwise_mul(e, edge_pad)), chains), target10),
            (10, 3), (2, 3, 2), kind="batched")
        check(lambda h: ad.mse_loss(ad.softmax_row(ad.col_sums(reconstruct_token_label(
            padded(h), chains))), target2), (10, 3), kind="batched")
        check(shared_layer, (8, 3), kind="batched")
        check(lambda t: ad.mse_loss(ad.gather_rows(t, [[4, 0, 4], [1, 3, 3]]),
                                    target10[:6].reshape(2, 3, 3)), (5, 3), kind="batched")
    # propagate over token rows and the shared label rows, as the first
    # layer runs it; after the loops above for the same reason
    for _ in range(20):
        check(lambda h, labels: ad.mse_loss(propagate(padded(h), None, chains, labels),
                                            target10[:8]), (6, 3), (2, 3), kind="batched")

    # end-to-end: loss through normalization, convolution and edge
    # reconstruction w.r.t. every parameter matrix
    from test_model import tiny_setup
    cfg, params, provider = tiny_setup(num_layers=2, hidden=6, n=3, d=4)
    ids = [0, 4, 5, 1]
    target = build_target([1, 0, 1])
    with Tape() as tape:
        tape.backward(batch_loss([(ids, target)], provider, params, cfg))
    worst_e2e = 0.0
    for node in params.parameters() + provider.parameters():
        def f(v, node=node):
            old = node.value
            node.value = v
            with Tape():
                loss = batch_loss([(ids, target)], provider, params, cfg)
            node.value = old
            return float(loss.value[0, 0])
        worst_e2e = max(worst_e2e, max_rel_err(node.grad,
                                               finite_difference_grad(f, node.value)))
    elapsed = time.monotonic() - start
    ok = (worst["op"] < 1e-4 and worst["batched"] < 1e-4 and worst_e2e < 1e-3
          and elapsed < 60)
    report(capsys, 1,
           ok, f"op rel err {worst['op']:.2e} (<1e-4), batched ops {worst['batched']:.2e} "
               f"(<1e-4), end-to-end {worst_e2e:.2e} (<1e-3), {elapsed:.1f}s (<60s)")


def test_criterion_2_structural_oracles(capsys):
    counts_ok = all(np.count_nonzero(build_chain_adjacency(m)) == 3 * m - 2
                    for m in range(1, 51))
    norm = normalize_adjacency(np.array([[1.0, 1.0], [1.0, 1.0]]))
    norm_err = float(np.max(np.abs(norm - np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]))))
    rng = np.random.default_rng(7)
    edges_ok = True
    for _ in range(100):
        with Tape():
            out = reconstruct_token_label(constant(rng.normal(size=(7, 8))), Chains([4], 4, 3))
        edges_ok &= bool(np.all(out.value >= 0) and np.all(out.value <= 1))
    ok = counts_ok and norm_err < 1e-12 and edges_ok
    report(capsys, 2,
           ok, f"chain nonzeros 3m-2 for m in 1..50: {counts_ok}; normalize "
               f"err {norm_err:.1e} (<1e-12); 100 random edge blocks in [0,1]: {edges_ok}")


def test_criterion_3_decoder_metric_oracles(capsys):
    rng = np.random.default_rng(42)
    decoders_ok = antitone_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        raw = rng.uniform(0, 1, n)
        probs = raw / raw.sum()
        k = int(rng.integers(1, n + 2))
        decoders_ok &= decode_topk(probs, k) == brute_force_topk(probs, k)
        t_lo, t_hi = sorted(rng.uniform(0.01, 1.0, 2))
        decoders_ok &= (decode_threshold(probs, t_lo)
                        == brute_force_threshold(probs, t_lo))
        antitone_ok &= decode_threshold(probs, t_hi) <= decode_threshold(probs, t_lo)

    jac = evaluate([{1, 2}], [{0, 1}], 3).jaccard
    f1 = evaluate([{0}, {0}], [{0}, set()], 1)
    micro, macro = f1.micro_f1, f1.macro_f1
    hand_ok = (abs(jac - 1 / 3) < 1e-12 and abs(micro - 2 / 3) < 1e-12
               and abs(macro - 2 / 3) < 1e-12)
    ok = decoders_ok and antitone_ok and hand_ok
    report(capsys, 3,
           ok, f"brute-force match on 1000 vectors: {decoders_ok}; antitone: "
               f"{antitone_ok}; hand values to 1e-12: {hand_ok}")


def test_criterion_4_synthetic_end_to_end(capsys, synth_run):
    s = synth_run
    cfg, params, provider, vocab = s["cfg"], s["params"], s["provider"], s["vocab"]
    rep = runmod.evaluate_model(s["test"], params, provider, cfg, vocab)

    attributions, trained_mse = runmod.explain_samples(
        s["test"], params, provider, cfg, vocab)
    hits = total = 0
    for sample, attr in zip(s["test"], attributions, strict=True):
        rows = token_rows(sample.tokens, cfg.max_len)
        for label in sample.labels:
            j = s["label_names"].index(label)
            row = int(np.argmax(attr[:, j]))
            hits += rows[row] == s["trigger_map"][label]
            total += 1
    hit_rate = hits / total

    untrained = ModelParams.init(cfg.model_config(), np.random.default_rng(99))
    untrained_provider = TrainableLookup(len(vocab), cfg.input_dim,
                                         np.random.default_rng(99))
    _, untrained_mse = runmod.explain_samples(
        s["test"], untrained, untrained_provider, cfg, vocab)
    ratio = untrained_mse / trained_mse

    ok = (rep.jaccard >= 0.90 and rep.micro_f1 >= 0.90 and hit_rate >= 0.80
          and ratio >= 10.0 and s["elapsed"] < 600)
    report(capsys, 4,
           ok, f"jaccard {rep.jaccard:.3f} (>=0.90), micro {rep.micro_f1:.3f} "
               f"(>=0.90), trigger hit rate {hit_rate:.2f} (>=0.80), "
               f"mse contrast {ratio:.2f}x (>=10x), train {s['elapsed']:.0f}s (<600s)")


def test_criterion_5_ablation_direction(capsys, synth_run, tmp_path):
    # 8-dim embeddings: a frozen random table cannot separate the 60-token
    # vocabulary, a trainable one can, so the encoder matters.
    s = synth_run
    reps = {}
    for freeze in (False, True):
        cfg = run_config(s["label_names"], tmp_path, input_dim=8, freeze=freeze)
        params, provider, vocab, _ = runmod.train(s["train"], cfg)
        reps[freeze] = runmod.evaluate_model(s["test"], params, provider, cfg, vocab)
    ok = reps[False].micro_f1 >= reps[True].micro_f1
    report(capsys, 5,
           ok, f"trainable micro {reps[False].micro_f1:.3f} >= frozen micro "
               f"{reps[True].micro_f1:.3f}; both runs completed")


def test_criterion_6_correlation_analysis(capsys, tmp_path):
    train, label_names, _ = generate_synthetic_corpus(
        3, 30, 200, seed=0, min_fillers=3, max_fillers=6,
        always_together=[(0, 1)], never_together=[(0, 2)], id_prefix="tr")
    test, _, _ = generate_synthetic_corpus(
        3, 30, 80, seed=1, min_fillers=3, max_fillers=6,
        always_together=[(0, 1)], never_together=[(0, 2)], id_prefix="te")
    cfg = run_config(label_names, tmp_path, epochs=60)
    params, provider, vocab, _ = runmod.train(train, cfg)
    pearson, cosine = runmod.correlate(test, params, provider, cfg, vocab)
    symmetric = bool(np.allclose(cosine, cosine.T, atol=1e-12)
                     and np.allclose(np.diag(cosine), 1.0, atol=1e-12))
    ok = pearson[0, 1] > 0.8 and pearson[0, 2] < -0.3 and symmetric
    report(capsys, 6,
           ok, f"pearson(L1,L2) {pearson[0, 1]:.3f} (>0.8), pearson(L1,L3) "
               f"{pearson[0, 2]:.3f} (<-0.3), cosine symmetric unit-diag: {symmetric}")


def test_criterion_7_determinism_persistence(capsys, tmp_path):
    train, label_names, _ = generate_synthetic_corpus(
        3, 20, 40, seed=5, min_fillers=3, max_fillers=6)
    cfg = run_config(label_names, tmp_path, epochs=5, hidden=16, input_dim=16)
    params1, provider1, vocab1, lines1 = runmod.train(train, cfg)
    params2, _, _, lines2 = runmod.train(train, cfg)
    logs_identical = "\n".join(lines1).encode() == "\n".join(lines2).encode()

    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params1, cfg.model_config(), ckpt, vocab=vocab1,
                    label_names=label_names)
    restored, model_cfg, vocab2, _, _ = load_checkpoint(ckpt)
    ids = tokenize(train[0].tokens, vocab1, cfg.max_len)
    with Tape():
        before = forward([ids], provider1, params1, cfg.model_config())
    with Tape():
        after = forward([ids], provider1, restored, model_cfg)
    forward_bitwise = bool(np.array_equal(before.probs, after.probs)
                           and np.array_equal(before.final_edges, after.final_edges))
    ok = logs_identical and forward_bitwise
    report(capsys, 7,
           ok, f"byte-identical logs: {logs_identical}; checkpoint forward "
               f"bitwise-equal: {forward_bitwise}")
