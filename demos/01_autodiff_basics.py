"""A tour of the tape engine: building expressions, gradients, checking them.

Every value in the library is a node on a reverse-mode tape. This script
builds a few expressions, runs the backward sweep, and validates the
results against central finite differences.
"""

import numpy as np

from relcon import tensor as T

rng = np.random.default_rng(0)

# --- a scalar expression with two named parameters -------------------------
a = T.parameter(rng.normal(size=(3, 4)), name="a")
b = T.parameter(rng.normal(size=(4, 2)), name="b")
ab = T.matmul(a, b)
loss = T.mean_all(T.mul(ab, ab))
print("loss value:", loss.item())

grads = T.backward(loss)
print("gradient shapes:", {k: v.shape for k, v in grads.items()})

# --- the same gradient, re-derived numerically -----------------------------
b_fixed = b.data


def f(t):
    tb = T.matmul(t, T.constant(b_fixed))
    return T.mean_all(T.mul(tb, tb))


err = T.finite_difference_check(f, a.data)
print(f"max relative error vs central differences: {err:.2e}")

# --- softmax stability ------------------------------------------------------
extreme = T.softmax(T.constant([[1000.0, 0.0, -1000.0]]))
print("softmax of extreme logits:", extreme.data)
print("row sums:", extreme.data.sum(axis=1))

# --- a reduction chain used by the relation machinery -----------------------
x = T.parameter(rng.normal(size=(4, 5)), name="x")
norms = T.row_l2_norm(T.matmul(x, T.transpose(x)))
print("Gram row norms:", norms.data)
total = T.sum_all(norms)
T.backward(total)
print("gradient through row norms is finite:", np.isfinite(x.grad).all())
