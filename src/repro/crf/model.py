"""Linear-chain CRF: log-likelihood training and Viterbi decoding.

Scores: ``score(y | x) = sum_t emission(t, y_t) + sum_t transition(y_{t-1},
y_t)`` with emissions being sums of weights of the active features at each
position. Training runs stochastic gradient ascent on the conditional
log-likelihood; the gradient is (empirical - expected) feature counts, with
expectations from the forward-backward algorithm in log space.
"""

from __future__ import annotations

import numpy as np

from repro.core.constrained import viterbi_paths
from repro.nn.functional import logsumexp


class LinearChainCRF:
    """A linear-chain CRF over dense-id sparse binary features."""

    def __init__(
        self,
        num_features: int,
        num_labels: int,
        l2: float = 1e-4,
    ) -> None:
        if num_features <= 0 or num_labels <= 0:
            raise ValueError("num_features and num_labels must be positive")
        self.num_features = num_features
        self.num_labels = num_labels
        self.l2 = l2
        self.emission_weights = np.zeros((num_features, num_labels))
        self.transition_weights = np.zeros((num_labels, num_labels))
        self.start_weights = np.zeros(num_labels)
        self.end_weights = np.zeros(num_labels)

    # -- scoring ----------------------------------------------------------

    def emission_scores(self, features: list[list[int]]) -> np.ndarray:
        """``(T, L)`` emission score matrix for one sentence."""
        scores = np.zeros((len(features), self.num_labels))
        for position, active in enumerate(features):
            if active:
                scores[position] = self.emission_weights[active].sum(axis=0)
        return scores

    def sequence_score(
        self, features: list[list[int]], labels: list[int]
    ) -> float:
        """Unnormalized log-score of a label sequence."""
        emissions = self.emission_scores(features)
        score = self.start_weights[labels[0]] + self.end_weights[labels[-1]]
        score += float(
            emissions[np.arange(len(labels)), labels].sum()
        )
        for previous, current in zip(labels, labels[1:]):
            score += self.transition_weights[previous, current]
        return float(score)

    # -- forward-backward ------------------------------------------------------

    def _forward(self, emissions: np.ndarray) -> np.ndarray:
        """Log-alpha table ``(T, L)``."""
        length = emissions.shape[0]
        alpha = np.empty_like(emissions)
        alpha[0] = self.start_weights + emissions[0]
        for t in range(1, length):
            # alpha[t, j] = logsumexp_i(alpha[t-1, i] + trans[i, j]) + em[t, j]
            alpha[t] = (
                logsumexp(
                    alpha[t - 1][:, None] + self.transition_weights, axis=0
                )
                + emissions[t]
            )
        return alpha

    def _backward(self, emissions: np.ndarray) -> np.ndarray:
        """Log-beta table ``(T, L)``."""
        length = emissions.shape[0]
        beta = np.empty_like(emissions)
        beta[-1] = self.end_weights
        for t in range(length - 2, -1, -1):
            beta[t] = logsumexp(
                self.transition_weights
                + (emissions[t + 1] + beta[t + 1])[None, :],
                axis=1,
            )
        return beta

    def log_partition(self, features: list[list[int]]) -> float:
        """log Z(x) — normalizer over all label sequences."""
        emissions = self.emission_scores(features)
        alpha = self._forward(emissions)
        return float(logsumexp(alpha[-1] + self.end_weights, axis=0))

    def log_likelihood(
        self, features: list[list[int]], labels: list[int]
    ) -> float:
        """Conditional log-likelihood of one labeled sentence."""
        return self.sequence_score(features, labels) - self.log_partition(
            features
        )

    def marginals(
        self, features: list[list[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior marginals.

        Returns ``(unary, pairwise)``: ``unary[t, j] = P(y_t = j | x)`` and
        ``pairwise[t, i, j] = P(y_t = i, y_{t+1} = j | x)`` for
        ``t < T - 1``.
        """
        emissions = self.emission_scores(features)
        length = emissions.shape[0]
        alpha = self._forward(emissions)
        beta = self._backward(emissions)
        log_z = logsumexp(alpha[-1] + self.end_weights, axis=0)

        unary = np.exp(alpha + beta - log_z)
        unary /= unary.sum(axis=1, keepdims=True)

        pairwise = np.zeros((max(length - 1, 0), self.num_labels, self.num_labels))
        for t in range(length - 1):
            log_pair = (
                alpha[t][:, None]
                + self.transition_weights
                + (emissions[t + 1] + beta[t + 1])[None, :]
                - log_z
            )
            pair = np.exp(log_pair)
            pairwise[t] = pair / pair.sum()
        return unary, pairwise

    # -- training ----------------------------------------------------------

    def sgd_update(
        self,
        features: list[list[int]],
        labels: list[int],
        lr: float,
    ) -> float:
        """One stochastic gradient ascent step; returns the sentence NLL."""
        length = len(features)
        if length == 0:
            return 0.0
        if length != len(labels):
            raise ValueError("features and labels must be parallel")
        emissions = self.emission_scores(features)
        alpha = self._forward(emissions)
        beta = self._backward(emissions)
        log_z = float(logsumexp(alpha[-1] + self.end_weights, axis=0))

        unary = np.exp(alpha + beta - log_z)
        unary /= unary.sum(axis=1, keepdims=True)

        # Emission gradient: empirical minus expected feature counts.
        for position, active in enumerate(features):
            if not active:
                continue
            gold = labels[position]
            expected = unary[position]
            self.emission_weights[active] -= lr * expected
            self.emission_weights[active, gold] += lr
        # Transition gradient.
        for t in range(length - 1):
            log_pair = (
                alpha[t][:, None]
                + self.transition_weights
                + (emissions[t + 1] + beta[t + 1])[None, :]
                - log_z
            )
            pair = np.exp(log_pair)
            pair /= pair.sum()
            self.transition_weights -= lr * pair
            self.transition_weights[labels[t], labels[t + 1]] += lr
        # Boundary gradients.
        self.start_weights -= lr * unary[0]
        self.start_weights[labels[0]] += lr
        self.end_weights -= lr * unary[-1]
        self.end_weights[labels[-1]] += lr

        # L2 regularization (decoupled, proportional step).
        if self.l2:
            decay = lr * self.l2
            self.emission_weights *= 1.0 - decay
            self.transition_weights *= 1.0 - decay

        # Post-update NLL (monitoring only; cheap and monotone enough).
        return log_z - self.sequence_score(features, labels)

    # -- decoding -----------------------------------------------------------

    def viterbi(self, features: list[list[int]]) -> list[int]:
        """Most probable label sequence."""
        return self.viterbi_batch([features])[0]

    def viterbi_batch(
        self, sentences: list[list[list[int]]]
    ) -> list[list[int]]:
        """Most probable label sequence for each sentence at once.

        One DP over the whole batch through the package's Viterbi kernel,
        :func:`repro.core.constrained.viterbi_paths`, which is bitwise
        per sentence (asserted in ``tests/crf/test_viterbi_batch.py``).
        """
        return viterbi_paths(
            [self.emission_scores(sentence) for sentence in sentences],
            self.transition_weights,
            self.start_weights,
            self.end_weights,
        )
