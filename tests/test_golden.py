"""Golden outputs of the model and its gradients, compared bit for bit.

The fixture holds predictions and the full parameter-gradient dict for the
compact configuration of acceptance criterion 6, in four cases: the
criterion's own single crystal in eval mode, and a batch in training mode
for each attention variant.  It was captured from the engine before its
gradient buffers were freed during backward and its ``np.add.at``
scatter-adds were replaced by segment sums; both changes must keep every
bit.  It also holds one SHA-256 digest over the prediction bytes and every
parameter gradient's bytes, in name order, for a training-mode batch at the
paper configuration, computed in a child process with one BLAS thread:
OpenBLAS splits a matmul's sums by its thread count, so the paper
configuration's bits depend on it (the compact cases' small matmuls do
not).  Recapture only for a deliberate change of numerics, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from matformer import engine
from matformer.featurize import batch_prepared
from matformer.model import Matformer, ModelConfig
from matformer.synthetic import random_corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_gradients.json")
CONFIG = dict(n_layers=2, n_heads=2, d_model=8, rbf_kernels=8, readout_hidden=8)

# name -> (attention variant, training mode, corpus size, corpus seed, atoms at most)
CASES = {
    "criterion6": ("sigmoid_norm", False, 1, 67, 2),
    "batch_sigmoid_norm": ("sigmoid_norm", True, 4, 68, 4),
    "batch_softmax_vector": ("softmax_vector", True, 4, 69, 4),
    "batch_softmax_scalar": ("softmax_scalar", True, 4, 70, 4),
}


def run_model(model, crystals, training):
    """Predictions and gradients of an MSE loss against 0.3."""
    n = len(crystals)
    prepared = batch_prepared([model.prepare(c) for c in crystals])
    pred = model.forward(prepared, training=training)
    diff = engine.sub(pred, engine.Tensor(np.full((n, 1), 0.3)))
    loss = engine.mean(engine.mul(diff, diff))
    model.zero_grad()
    engine.backward(loss)
    grads = {k: p.grad if p.grad is not None else np.zeros_like(p.values)
             for k, p in model.parameters().items()}
    return pred.values, grads


def run_case(name):
    variant, training, n, seed, atoms = CASES[name]
    model = Matformer(ModelConfig(attention_variant=variant, **CONFIG), seed=66)
    return run_model(model, random_corpus(n, seed=seed, n_atoms_max=atoms), training)


def paper_config_digest() -> str:
    """``paper_config_digest_here`` in a child process that runs one BLAS thread."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, os.path.abspath(__file__), "--paper-config-digest"],
                           env=env, capture_output=True, text=True, check=True)
    return child.stdout.strip()


def paper_config_digest_here() -> str:
    """SHA-256 of the prediction bytes, then each gradient's bytes in name order."""
    pred, grads = run_model(Matformer(ModelConfig(), seed=5), random_corpus(8, seed=7), training=True)
    digest = hashlib.sha256(np.ascontiguousarray(pred).tobytes())
    for name in sorted(grads):
        digest.update(np.ascontiguousarray(grads[name]).tobytes())
    return digest.hexdigest()


def capture() -> dict:
    out = {}
    for name in CASES:
        pred, grads = run_case(name)
        out[name] = {
            "predictions": pred.ravel().tolist(),
            "grads": {k: {"shape": list(g.shape), "values": g.ravel().tolist()} for k, g in grads.items()},
        }
    out["paper_config"] = {"sha256": paper_config_digest()}
    return out


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden_bit_for_bit(golden, name):
    pred, grads = run_case(name)
    expected = golden[name]
    assert np.array_equal(pred.ravel(), np.array(expected["predictions"]))
    assert sorted(grads) == sorted(expected["grads"])
    for key, entry in expected["grads"].items():
        want = np.array(entry["values"], dtype=float).reshape(entry["shape"])
        assert np.array_equal(grads[key], want), key


def test_paper_config_matches_golden_digest(golden):
    assert paper_config_digest() == golden["paper_config"]["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--paper-config-digest"]:
        print(paper_config_digest_here())
        sys.exit()
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh)
        fh.write("\n")
