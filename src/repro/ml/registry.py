"""The classifier registry: stable names + params dicts → :class:`Classifier`.

The arena's adaptive attacker is described on the wire as a classifier spec
(``classifier_spec``) and reconstructed per cell (``classifier_from_spec``),
so a sweep leased through the coordinator trains byte-identical estimators
on every worker.  See :mod:`repro.components` for the spec grammar.
"""

from __future__ import annotations

from typing import Mapping

from repro.components import ComponentRegistry
from repro.ml.base import Classifier
from repro.ml.interval import IntervalClassifier
from repro.ml.knn import KNearestNeighbors
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.tree import DecisionTreeClassifier

#: The registry of every sweepable estimator.
CLASSIFIER_REGISTRY = ComponentRegistry("classifier", Classifier)
CLASSIFIER_REGISTRY.register("interval", IntervalClassifier)
CLASSIFIER_REGISTRY.register("knn", KNearestNeighbors)
CLASSIFIER_REGISTRY.register("naive-bayes", GaussianNaiveBayes)
CLASSIFIER_REGISTRY.register("tree", DecisionTreeClassifier)
CLASSIFIER_REGISTRY.register("logistic", LogisticRegressionClassifier)


def build_classifier(
    name: str, params: Mapping[str, object] | None = None
) -> Classifier:
    """Construct a classifier from its registry name and a params dict."""
    classifier = CLASSIFIER_REGISTRY.build(name, params)
    assert isinstance(classifier, Classifier)
    return classifier


def classifier_spec(classifier: Classifier) -> dict[str, object]:
    """The canonical, wire-ready spec dict of a registry-built classifier."""
    return CLASSIFIER_REGISTRY.spec(classifier)


def classifier_from_spec(data: object) -> Classifier:
    """Rebuild a classifier from its spec dict (inverse of :func:`classifier_spec`)."""
    classifier = CLASSIFIER_REGISTRY.from_spec(data)
    assert isinstance(classifier, Classifier)
    return classifier
