"""Process-wide mode state: per-thread depths and memoised tree walks.

``inference_mode`` and ``numeric_guard`` nest per thread, so a serving
thread inside one never switches it on for a training thread next to
it. ``Module.eval`` memoises its tree walk against the mode epoch;
every way the walk's answer can change moves it.
"""

import copy
import pickle
import sys
import threading

import numpy as np

from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import (
    Module,
    inference_mode,
    is_inference,
    numeric_guard,
    numeric_guard_active,
)


def _in_thread(function):
    seen = []
    thread = threading.Thread(target=lambda: seen.append(function()))
    thread.start()
    thread.join()
    return seen[0]


class TestThreadLocalModes:
    def test_other_threads_do_not_see_this_threads_modes(self):
        with inference_mode(), numeric_guard():
            assert is_inference() and numeric_guard_active()
            seen = _in_thread(lambda: (is_inference(), numeric_guard_active()))
        assert seen == (False, False)

    def test_concurrent_enter_exit_ends_at_depth_zero(self):
        # More threads than cores and a short switch interval: a shared
        # counter's lost update would leave a depth above zero, or show
        # a thread a mode it never entered.
        barrier = threading.Barrier(4)
        errors = []

        def churn(enter):
            barrier.wait()
            for __ in range(2000):
                if is_inference() or numeric_guard_active():
                    errors.append("saw a mode it did not enter")
                if enter:
                    with inference_mode(), numeric_guard():
                        if not (is_inference() and numeric_guard_active()):
                            errors.append("mode lost inside its block")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(index % 2 == 0,))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not is_inference() and not numeric_guard_active()


class Tree(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Linear(4, 4, rng)
        self.blocks = [LayerNorm(4), Dropout(0.5, rng)]


def _training(module):
    return [child.training for child in module.modules()]


class TestEvalMemo:
    def test_train_on_a_child_after_eval_is_seen(self):
        tree = Tree(np.random.default_rng(0))
        tree.eval()
        tree.blocks[1].train()
        assert tree.blocks[1].training
        tree.eval()
        assert not any(_training(tree))

    def test_a_child_built_after_eval_is_switched(self):
        tree = Tree(np.random.default_rng(0)).eval()
        tree.blocks.append(Dropout(0.5, np.random.default_rng(1)))
        tree.eval()
        assert not any(_training(tree))

    def test_train_on_another_tree_sharing_a_child_is_seen(self):
        tree = Tree(np.random.default_rng(0))
        other = Module()
        other.shared = tree.first
        tree.eval()
        other.train()
        assert tree.first.training
        tree.eval()
        assert not any(_training(tree))

    def test_copied_tree_walks_again(self):
        tree = Tree(np.random.default_rng(0)).eval()
        for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            for child in twin.modules():
                child.training = True  # as a tree pickled mid-training
            twin.eval()
            assert not any(_training(twin))
