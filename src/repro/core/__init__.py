"""The White Mirror attack: recovering viewer choices from encrypted traffic.

This is the paper's contribution.  Given a captured trace of an interactive
viewing session, the attack

1. finds the streaming connection and extracts the *SSL record lengths of
   client packets* — the side-channel (:mod:`repro.core.features`);
2. classifies each client record as a type-1 state report, a type-2 state
   report or "other" using per-condition record-length band fingerprints
   learned from labelled training sessions (:mod:`repro.core.fingerprint`,
   :mod:`repro.core.classifier`);
3. turns the classified event sequence into the viewer's choice sequence —
   every type-1 is a question reached, a following type-2 means the
   non-default branch was picked (:mod:`repro.core.inference`);
4. optionally maps the recovered choices onto behavioural trait hints
   (:mod:`repro.core.profiling`).

:class:`repro.core.pipeline.WhiteMirrorAttack` wires the steps together, and
:mod:`repro.core.evaluation` scores recovered choices against ground truth.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".features": "ClientRecord LABEL_OTHER LABEL_TYPE1 LABEL_TYPE2"
            " extract_client_records record_length_series",
        ".fingerprint": "FingerprintAccumulator FingerprintLibrary LengthBand"
            " RecordLengthFingerprint",
        ".classifier": "RecordTypeClassifier MLRecordClassifier",
        ".inference": "ChoiceEvent InferredChoices infer_choices reconstruct_path",
        ".profiling": "TraitEstimate BehavioralProfile profile_from_choices",
        ".pipeline": "AttackResult WhiteMirrorAttack",
        ".evaluation": "AttackEvaluation evaluate_attack_result"
            " evaluate_record_classification",
    },
)
