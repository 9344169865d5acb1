"""Per-layer timing for the traced benchmark run.

The traced run wraps the public entry points of every layer (see
``TARGETS``) with a timing shim that lives here, in the benchmark, so the
library under test is never edited.  Each wrapped call is one span; spans
are kept in memory and, when the run ends, written out together with the
per-layer self-time table.

For every metric the recorder keeps:

* ``calls`` - outermost calls (a call nested inside a call of the same
  metric, e.g. ``decrypt`` -> ``decrypt_with_hint``, is not counted again);
* ``s`` - busy seconds of those outermost calls;
* ``self_s`` - span time minus the time of the spans directly inside it.

Layer self time is the sum of the self time of its metrics, so the layer
self times of a window add up to the time spent in instrumented code.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in table order: crypto kernels up to the wire.
LAYERS = ("ec", "pairing", "mathutils", "ibbe", "crypto", "metadata",
          "enclave_app", "sgx", "par", "admin", "client", "cloud", "net")


def _msm_points(args, result) -> int:
    return len(args[1])


def _result_len(args, result) -> int:
    return len(result)


def _listify_pairs(args):
    # ``Curve.multi_mul(self, pairs)`` accepts a generator; materialise it
    # so the points can be counted without consuming them.
    return (args[0], list(args[1])) + tuple(args[2:])


#: (metric, layer, module, qualified attribute, kind, extra counter).
#: ``kind`` is "method", "classmethod" or "function"; functions are
#: rebound in every ``repro`` module that imported them by name.  The
#: extra counter is ``(name, count[, prepare])``: ``count(args, result)``
#: is added to ``<metric>.<name>``; ``prepare(args)`` rewrites the
#: arguments before the call.
TARGETS: Tuple[Tuple[str, str, str, str, str, Optional[tuple]], ...] = (
    ("ec.msm", "ec", "repro.ec.curve", "Curve.multi_mul", "method",
     ("points", _msm_points, _listify_pairs)),
    ("ec.mul", "ec", "repro.ec.curve", "Point.__mul__", "method", None),
    ("ec.decode", "ec", "repro.ec.curve", "Point.decode", "classmethod", None),
    ("pairing.pair", "pairing", "repro.pairing.group", "PairingGroup.pair",
     "method", None),
    ("pairing.gt_pow", "pairing", "repro.pairing.group", "GTElement.__pow__",
     "method", None),
    ("mathutils.poly", "mathutils", "repro.mathutils.poly",
     "monic_linear_product", "function", None),
    ("mathutils.poly", "mathutils", "repro.mathutils.poly", "poly_mul",
     "function", None),
    ("mathutils.poly", "mathutils", "repro.mathutils.poly",
     "poly_div_linear", "function", None),
    ("mathutils.poly", "mathutils", "repro.mathutils.poly", "poly_eval",
     "function", None),
    ("ibbe.prepare", "ibbe", "repro.ibbe.scheme",
     "prepare_decryption_public", "function", None),
    ("ibbe.decrypt", "ibbe", "repro.ibbe.scheme", "decrypt_with_hint",
     "function", None),
    ("ibbe.decrypt", "ibbe", "repro.ibbe.scheme", "decrypt", "function",
     None),
    ("crypto.ecdsa_sign", "crypto", "repro.crypto.ecdsa",
     "EcdsaPrivateKey.sign", "method", None),
    ("crypto.ecdsa_verify", "crypto", "repro.crypto.ecdsa",
     "EcdsaPublicKey.verify", "method", None),
    ("crypto.gcm", "crypto", "repro.crypto.modes", "gcm_encrypt",
     "function", None),
    ("crypto.gcm", "crypto", "repro.crypto.modes", "gcm_decrypt",
     "function", None),
    ("metadata.sign", "metadata", "repro.core.metadata",
     "PartitionRecord.signed", "method",
     ("bytes", _result_len)),
    ("metadata.sign", "metadata", "repro.core.metadata",
     "GroupDescriptor.signed", "method", ("bytes", _result_len)),
    ("metadata.verify", "metadata", "repro.core.metadata",
     "PartitionRecord.verify_and_decode", "classmethod", None),
    ("metadata.verify", "metadata", "repro.core.metadata",
     "GroupDescriptor.verify_and_decode", "classmethod", None),
    ("sgx.call", "sgx", "repro.sgx.enclave", "Enclave.call", "method", None),
    ("sgx.call", "sgx", "repro.sgx.enclave", "Enclave.call_batch", "method",
     None),
    ("par.run", "par", "repro.par.pool", "WorkerPool.run", "method",
     ("tasks", _result_len)),
    ("admin.op", "admin", "repro.core.admin",
     "GroupAdministrator.create_group", "method", None),
    ("admin.op", "admin", "repro.core.admin", "GroupAdministrator.add_user",
     "method", None),
    ("admin.op", "admin", "repro.core.admin", "GroupAdministrator.add_users",
     "method", None),
    ("admin.op", "admin", "repro.core.admin",
     "GroupAdministrator.remove_user", "method", None),
    ("client.sync", "client", "repro.core.client", "GroupClient.sync",
     "method", None),
    ("client.sync", "client", "repro.core.client",
     "GroupClient.current_group_key", "method", None),
    ("net.rpc", "net", "repro.net.client", "RemoteCloudStore._call",
     "method", None),
) + tuple(
    (metric, "cloud", module, f"{cls}.{method}", "method", None)
    for module, cls in (("repro.cloud.store", "CloudStore"),
                        ("repro.net.client", "RemoteCloudStore"))
    for metric, method in (
        ("cloud.commit", "commit"),
        ("cloud.read", "get"), ("cloud.read", "get_many"),
        ("cloud.read", "poll_dir"), ("cloud.read", "list_dir"),
        ("cloud.read", "exists"), ("cloud.read", "head_sequence"),
        ("cloud.read", "snapshot_horizon"),
    )
)

#: The enclave-application layer: every registered ecall body.
ECALL_METRIC = ("enclave_app.ecall", "enclave_app")


class Recorder:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: (metric, layer, start offset s, duration s, self s, depth)
        self.spans: List[Tuple[str, str, float, float, float, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []
        self._open: Dict[str, int] = defaultdict(int)

    def call(self, metric: str, layer: str, extra, fn, args, kwargs):
        if extra is not None and len(extra) > 2:
            args = extra[2](args)
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[metric] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[metric] -= 1
            duration = end - frame[0]
            own = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if not self._open[metric]:
                self.calls[metric] += 1
                self.busy[metric] += duration
            self.self_s[metric] += own
            self.layer_self[layer] += own
            self.spans.append((metric, layer, frame[0] - self.origin,
                               duration, own, len(self._stack)))
        if extra is not None:
            self.extra[f"{metric}.{extra[0]}"] += extra[1](args, result)
        return result


class Instrumentation:
    """Installs the timing shims of ``TARGETS`` and removes them again.

    Use as a context manager around the traced window only; outside it
    the library runs unmodified.
    """

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> Recorder:
        import importlib

        for metric, layer, module_name, attr, kind, extra in TARGETS:
            module = importlib.import_module(module_name)
            if kind == "function":
                self._wrap_function(module, attr, metric, layer, extra)
            else:
                cls_name, name = attr.split(".")
                self._wrap_method(getattr(module, cls_name), name, kind,
                                  metric, layer, extra)
        self._wrap_ecalls()
        return self.recorder

    def __exit__(self, *exc) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _shim(self, fn, metric, layer, extra):
        recorder = self.recorder

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return recorder.call(metric, layer, extra, fn, args, kwargs)
        return timed

    def _wrap_method(self, cls, name, kind, metric, layer, extra) -> None:
        original = cls.__dict__[name]
        if kind == "classmethod":
            replacement = classmethod(
                self._shim(original.__func__, metric, layer, extra))
        else:
            replacement = self._shim(original, metric, layer, extra)
        # Aliases such as ``__rmul__ = __mul__`` share the function.
        names = [n for n, v in cls.__dict__.items() if v is original]
        for alias in names:
            setattr(cls, alias, replacement)
        self._undo.append(lambda: [setattr(cls, alias, original)
                                   for alias in names])

    def _wrap_function(self, module, name, metric, layer, extra) -> None:
        original = getattr(module, name)
        replacement = self._shim(original, metric, layer, extra)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, replacement)
                    self._undo.append(
                        lambda mod=mod, alias=alias:
                        setattr(mod, alias, original))

    def _wrap_ecalls(self) -> None:
        from repro.enclave_app import IbbeEnclave
        from repro.sgx.enclave import EcallRegistry

        entries = EcallRegistry.for_class(IbbeEnclave)._entries
        saved = dict(entries)
        metric, layer = ECALL_METRIC
        for name, descriptor in saved.items():
            entries[name] = dataclasses.replace(
                descriptor,
                handler=self._shim(descriptor.handler, metric, layer, None))
        self._undo.append(lambda: entries.update(saved))


def layer_table(recorder: Recorder, window_s: float) -> List[str]:
    """The per-layer self-time table, one text line per layer."""
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7}"]
    for layer in LAYERS:
        own = recorder.layer_self.get(layer, 0.0)
        share = own / window_s if window_s else 0.0
        lines.append(f"{layer:<12} {own:>9.4f} {share:>7.1%}")
    other = window_s - sum(recorder.layer_self.values())
    lines.append(f"{'(outside)':<12} {other:>9.4f} "
                 f"{(other / window_s if window_s else 0.0):>7.1%}")
    return lines
