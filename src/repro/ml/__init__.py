"""From-scratch machine-learning helpers.

No scikit-learn is available (or needed): the attack's core classifier is an
interval/band rule learned directly from labelled record lengths, and the
generic classifiers here (k-nearest-neighbours, Gaussian naive Bayes, a depth-
limited decision tree and multinomial logistic regression) exist to show that
the side-channel is learnable without the hand-built bins and to support the
ablation benchmarks.

All estimators follow the same minimal protocol: ``fit(features, labels)``
then ``predict(features)``, with features as 2-D ``numpy`` arrays and labels
as 1-D arrays of strings or integers.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".split": "StratifiedSplit kfold_indices train_test_split",
        ".metrics": "ConfusionMatrix accuracy_score classification_report f1_score"
            " precision_score recall_score",
        ".base": "Classifier",
        ".interval": "IntervalClassifier",
        ".knn": "KNearestNeighbors",
        ".naive_bayes": "GaussianNaiveBayes",
        ".tree": "DecisionTreeClassifier",
        ".logistic": "LogisticRegressionClassifier",
        ".registry": "CLASSIFIER_REGISTRY build_classifier classifier_from_spec"
            " classifier_names classifier_spec",
    },
)
