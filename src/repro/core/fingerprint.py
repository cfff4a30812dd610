"""Canonical content fingerprint of a scheduling instance.

The service layer (:mod:`repro.service`) keys its result cache by
*instance content*, not by file name or object identity: two requests
carrying the same machine count, the same processing-time matrix and the
same precedence relation must collide on one cache line no matter how
the instance reached the process (JSON file, generator, pickle, client
payload) or in which order its edges were written down.

The digest therefore hashes the **canonical array image** of the
instance, exactly the representation the solver itself consumes:

* ``m`` and ``n`` (which also fix the layout of everything below);
* the processing-time matrix ``p_j(l)`` row by row, as IEEE-754
  big-endian doubles — bit-exact, no decimal round-tripping;
* the successor CSR of the DAG (``indptr`` + ``indices``), built
  deduplicated and sorted by :func:`repro.dag.graph.canonical_successors`
  (for a :class:`repro.dag.Dag` and for raw JSON arcs alike), so the
  edge *input order* and duplicate arcs never reach the hash.

The image is hashed by :func:`content_digest` alone, whether it comes
from a built :class:`~repro.core.Instance` (:func:`instance_content_key`,
what the service daemon keys every parsed request by) or straight from
instance JSON (:func:`repro.io.content_key_from_dict`, which the service
client uses to key a dict for a key-only request without building it).

Deliberately excluded: the instance/task ``name`` labels (display-only)
and the task ``model`` tag (a validation mode — the two recognized
models accept identical discrete profiles and the solvers read only the
profile).  Task *indices* are part of the content: ``tasks[j]`` is the
node ``J_j`` of the precedence DAG, so permuting indices genuinely
changes the instance.

The fingerprint is versioned: bump :data:`FINGERPRINT_VERSION` whenever
the byte layout changes, so stale on-disk cache entries can never be
mistaken for current ones.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .instance import Instance

__all__ = ["FINGERPRINT_VERSION", "content_digest", "instance_content_key"]

#: Version tag mixed into the digest; bump on any byte-layout change.
FINGERPRINT_VERSION = 1


def content_digest(
    m: int,
    n: int,
    times: np.ndarray,
    succ_indptr: np.ndarray,
    succ_indices: np.ndarray,
) -> str:
    """Hex SHA-256 over the canonical array image — the one digest.

    ``times`` is the ``(n, m)`` processing-time matrix and
    ``succ_indptr``/``succ_indices`` the canonical successor CSR
    (:func:`repro.dag.graph.canonical_successors`).  Both keying paths
    call this: :func:`instance_content_key` on a built instance and
    :func:`repro.io.content_key_from_dict` straight on the JSON arrays.
    """
    h = hashlib.sha256()
    h.update(b"repro-instance-fingerprint-v%d" % FINGERPRINT_VERSION)
    h.update(np.asarray([m, n], dtype=">i8").tobytes())
    # The times matrix in row-major order; n and m above fix the framing.
    h.update(np.asarray(times, dtype=">f8").tobytes())
    h.update(np.asarray(succ_indptr, dtype=">i8").tobytes())
    h.update(np.asarray(succ_indices, dtype=">i8").tobytes())
    return h.hexdigest()


def instance_content_key(instance: "Instance") -> str:
    """Stable hex SHA-256 of the instance's canonical content.

    Equal for any two instances with the same ``m``, the same
    processing-time matrix and the same precedence arcs — regardless of
    edge input order, duplicate arcs, labels, or a pickle round-trip.
    Prefer :meth:`repro.core.Instance.content_key`, which memoizes this.
    """
    csr = instance.dag.to_csr()
    return content_digest(
        instance.m,
        instance.n_tasks,
        instance.times,
        csr.succ_indptr,
        csr.succ_indices,
    )
