"""Shared test utilities, kept independent of the library internals."""

import hashlib
import json
import struct

import numpy as np

from nextsession.tensor import Tensor


def finite_difference(make_loss, arrays, eps=1e-5):
    """Central-difference gradients of a scalar loss w.r.t. float64 arrays.

    `make_loss` receives the arrays and returns a python float. Returns
    one gradient array per input. Deliberately knows nothing about the
    autodiff graph it is used to check.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = make_loss(arrays)
            flat[i] = orig - eps
            down = make_loss(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_grad_close(analytic, numeric, tol=1e-4):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    assert err.max() < tol, f"max relative gradient error {err.max():.3e} >= {tol}"


def check_op_gradient(build, arrays, tol=1e-4, eps=1e-5):
    """Gradient-check `build`, which maps leaf Tensors to a scalar Tensor."""

    def make_loss(arrs):
        leaves = [Tensor(a, requires_grad=True) for a in arrs]
        return build(*leaves).item()

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    out.backward()
    numeric = finite_difference(make_loss, arrays, eps=eps)
    for leaf, num in zip(leaves, numeric):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(num)
        assert_grad_close(analytic, num, tol=tol)


def graph_size(root):
    """Number of distinct nodes reachable from `root` through its parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def legacy_copy(path, tmp_path, optimizer="adam", sampling="uniform"):
    """Rewrite a checkpoint's header as written before the retired
    single-value keys were dropped, stored hash included."""
    blob = open(path, "rb").read()
    (n,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + n])
    header["config"]["optimizer"] = optimizer
    header["config"]["loss"]["sampling"] = sampling
    header["config_hash"] = hashlib.sha256(
        json.dumps(header["config"], sort_keys=True).encode()
    ).hexdigest()[:16]
    raw = json.dumps(header, sort_keys=True).encode()
    out = tmp_path / f"legacy-{optimizer}-{sampling}.bin"
    out.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + n :])
    return str(out)
