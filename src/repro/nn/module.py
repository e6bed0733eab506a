"""Parameter and Module base classes for the numpy DL substrate.

A :class:`Parameter` couples a value array with its gradient accumulator.
A :class:`Module` discovers parameters and sub-modules through its instance
attributes (the same convention as torch.nn.Module) and provides traversal,
train/eval mode switching, and state-dict (de)serialization.

Modules implement ``forward`` (caching whatever the backward pass needs on
``self``) and ``backward`` (consuming the upstream gradient, accumulating
parameter gradients, and returning the gradient w.r.t. the input).
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections.abc import Iterator

import numpy as np

from repro.nn import precision


class _ModeDepths(threading.local):
    """Per-thread nesting depths of :func:`inference_mode` and
    :func:`numeric_guard`: a serving thread inside one must not switch
    it on for a training thread next to it."""

    inference = 0
    numeric_guard = 0


_depths = _ModeDepths()


def is_inference() -> bool:
    """True inside an :func:`inference_mode` block on this thread."""
    return _depths.inference > 0


@contextlib.contextmanager
def inference_mode() -> Iterator[None]:
    """Forward-only mode: layers skip backward-cache construction.

    Unlike ``Module.eval()`` (which only changes layer *behaviour*, e.g.
    turning dropout into the identity), inference mode promises that no
    ``backward`` will follow, so ``forward`` skips storing activations and
    masks entirely. Re-entrant and per thread; calling ``backward`` after
    a forward run under inference mode raises "backward called before
    forward".
    """
    depths = _depths
    depths.inference += 1
    try:
        yield
    finally:
        depths.inference -= 1


def numeric_guard_active() -> bool:
    """True inside a :func:`numeric_guard` block on this thread."""
    return _depths.numeric_guard > 0


@contextlib.contextmanager
def numeric_guard() -> Iterator[None]:
    """Opt-in NaN/inf detection on forward passes.

    Inside this block, model forwards (encoder states, classifier logits)
    verify their outputs are finite and raise
    :class:`repro.runtime.errors.NumericalError` otherwise, so a poisoned
    activation surfaces as a classified, retryable stage failure instead
    of silently corrupting every downstream record. Off by default: the
    clean path pays nothing. Re-entrant and per thread.
    """
    depths = _depths
    depths.numeric_guard += 1
    try:
        yield
    finally:
        depths.numeric_guard -= 1


def guard_finite(array: np.ndarray, context: str) -> np.ndarray:
    """Raise ``NumericalError`` if ``array`` is non-finite under the guard.

    A no-op (and free) outside :func:`numeric_guard` blocks. Returns the
    array so call sites can wrap their return expression.
    """
    if _depths.numeric_guard > 0 and not np.all(np.isfinite(array)):
        # Imported lazily: repro.runtime imports this module at package
        # init, so a top-level import here would be circular.
        from repro.runtime.errors import NumericalError

        bad = int(np.size(array) - np.sum(np.isfinite(array)))
        raise NumericalError(
            f"non-finite values ({bad} element(s)) in {context}"
        )
    return array


#: Stands for the current training flags of every module in the process.
#: Replaced (never mutated) whenever a flag may have turned on, so the
#: :meth:`Module.eval` memo is valid while it is still the same object.
#: A token is an identity, so a memo that crossed a pickle or a deep copy
#: never matches; a forked child shares its parent's modules and memos.
_mode_epoch = object()


def bump_mode_epoch() -> None:
    """Invalidate every :meth:`Module.eval` memo: call it after a
    training flag may have turned on (``train()``, a new module)."""
    global _mode_epoch
    _mode_epoch = object()


class Parameter:
    """A trainable array with a gradient accumulator of the same shape."""

    def __init__(self, value: np.ndarray) -> None:
        self.value = np.asarray(value, dtype=precision.dtype())
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Base class with parameter traversal and train/eval mode."""

    def __init__(self) -> None:
        self.training = True
        bump_mode_epoch()  # a new module may join a tree already in eval
        self._state_version = 0
        self._fingerprint_cache: tuple[int, str] | None = None

    # -- traversal ----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module and children."""
        for name, attr in vars(self).items():
            full_name = f"{prefix}{name}"
            if isinstance(attr, Parameter):
                yield full_name, attr
            elif isinstance(attr, Module):
                yield from attr.named_parameters(f"{full_name}.")
            elif isinstance(attr, (list, tuple)):
                for index, item in enumerate(attr):
                    if isinstance(item, Module):
                        yield from item.named_parameters(
                            f"{full_name}.{index}."
                        )

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its descendants."""
        return [param for __, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendant modules."""
        yield self
        for attr in vars(self).values():
            if isinstance(attr, Module):
                yield from attr.modules()
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode / grads --------------------------------------------------------

    def train(self) -> "Module":
        """Switch this module and all descendants to training mode."""
        for module in self.modules():
            module.training = True
        bump_mode_epoch()
        self.bump_state_version()
        return self

    def eval(self) -> "Module":
        """Switch this module and all descendants to inference mode.

        Memoised: a repeat call walks the tree again only after the mode
        epoch moved (some module was built or put in training mode since).
        Switching flags off cannot undo another tree's memo, so this
        walk does not move the epoch.
        """
        epoch = _mode_epoch
        if getattr(self, "_eval_epoch", None) is epoch:
            return self
        for module in self.modules():
            module.training = False
        self._eval_epoch = epoch
        return self

    def zero_grad(self) -> None:
        """Reset the gradient accumulators of every parameter."""
        for param in self.parameters():
            param.zero_grad()
        # Training loops call zero_grad() once per optimizer step, i.e.
        # right around every in-place weight mutation — bumping here keeps
        # the memoized fingerprint honest without hashing on the hot path.
        self.bump_state_version()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(param.value.size for param in self.parameters())

    # -- state dict ------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value, keyed by dotted name."""
        return {
            name: param.value.copy()
            for name, param in self.named_parameters()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict` (strict)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=precision.dtype())
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.value.shape}"
                )
            param.value = value.copy()
            param.grad = np.zeros_like(param.value)
        self.bump_state_version()

    # -- content fingerprint -------------------------------------------------

    def bump_state_version(self) -> None:
        """Invalidate the memoized :meth:`fingerprint`.

        Called automatically on every path that mutates parameter values
        (``load_state_dict``, ``zero_grad`` — which training loops invoke
        once per optimizer step — and ``train``). Call it manually after
        any out-of-band in-place weight edit.
        """
        self._state_version = getattr(self, "_state_version", 0) + 1

    def fingerprint(self) -> str:
        """SHA-256 content digest of every parameter (memoized).

        The digest covers sorted dotted parameter names, dtypes, shapes,
        and raw value bytes — the same content hash convention as
        :func:`repro.nn.serialize.state_digest` — so two modules with
        bitwise-equal weights share a fingerprint and a single flipped
        byte changes it. Memoized against ``_state_version``: repeated
        inference-path lookups (the result cache keys every request by
        this) cost a tuple compare, not a re-hash.
        """
        version = getattr(self, "_state_version", 0)
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1]
        digest = hashlib.sha256()
        for name, param in sorted(self.named_parameters()):
            digest.update(name.encode("utf-8"))
            digest.update(str(param.value.dtype).encode("ascii"))
            digest.update(repr(param.value.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(param.value).tobytes())
        result = digest.hexdigest()
        self._fingerprint_cache = (version, result)
        return result

    # -- call sugar ---------------------------------------------------------------

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError
