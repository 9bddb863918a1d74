"""Zero-frequency epoch extraction, speaker similarity, and a voice lock.

The package finds glottal closure instants (epochs) in speech by
resonating the signal at 0 Hz, removes the resulting polynomial trend,
and reads epochs off the filtered output. Epoch interval sequences are
compared to score speaker similarity, and a file-directory protocol
turns that score into an open/close decision.
"""

from .compare import (
    DEFAULT_EPSILON_S,
    MatchConfig,
    SimilarityScore,
    confidence,
    delta12_count,
    deltas,
)
from .core import (
    BadConfig,
    BadMethod,
    BadRadius,
    BadSequence,
    BadSpec,
    DeltaSequence,
    EmptySignal,
    EpochSequence,
    FilterConfig,
    NoLocks,
    NonFinite,
    NonPositiveRate,
    OmegaOutOfRange,
    SampledSignal,
    TooShort,
    TrimTooLarge,
    WindowTooLarge,
    ZfepochError,
    validate_signal,
)
from .epochs import (
    EvalReport,
    detect_negative_peaks,
    detect_positive_zero_crossings,
    egg_reference_epochs,
    evaluate,
    extract_epochs,
    greedy_nearest_match,
)
from .filters import (
    FrequencyResponse,
    PoleReport,
    cascaded_resonator,
    detrend,
    differentiate,
    frequency_response,
    pole_report,
    run_pipeline,
    trim_ends,
    zff_pipeline,
    zfr_pipeline,
    zpzfr_pipeline,
)
from .io import (
    EmptyAudio,
    IoFailure,
    NotWav,
    UnsupportedEncoding,
    read_epochs_csv,
    read_wav,
    write_epochs_csv,
    write_epochs_json,
    write_response_csv,
    write_score_json,
    write_wav,
)
from .lock import (
    Decision,
    LockConfig,
    LockSession,
    Phase,
    UnreadableAudio,
    WatchDirMissing,
    decide,
    env_overrides,
    run_daemon,
    verify_once,
)
from .synth import SynthSpec, impulse_train, speaker, synth_voice

__version__ = "0.1.0"

__all__ = [
    "BadConfig", "BadMethod", "BadRadius", "BadSequence", "BadSpec",
    "DEFAULT_EPSILON_S",
    "Decision", "DeltaSequence", "EmptyAudio", "EmptySignal", "EpochSequence",
    "EvalReport", "FilterConfig", "FrequencyResponse", "IoFailure",
    "LockConfig", "LockSession", "MatchConfig", "NoLocks", "NonFinite",
    "NonPositiveRate", "NotWav", "OmegaOutOfRange", "Phase", "PoleReport",
    "SampledSignal", "SimilarityScore", "SynthSpec", "TooShort",
    "TrimTooLarge", "UnreadableAudio", "UnsupportedEncoding",
    "WatchDirMissing", "WindowTooLarge", "ZfepochError", "cascaded_resonator",
    "confidence", "decide", "delta12_count", "deltas", "detect_negative_peaks",
    "detect_positive_zero_crossings", "detrend", "differentiate",
    "egg_reference_epochs", "env_overrides", "evaluate", "extract_epochs",
    "frequency_response", "greedy_nearest_match", "impulse_train",
    "pole_report", "read_epochs_csv", "read_wav", "run_daemon",
    "run_pipeline", "speaker", "synth_voice", "trim_ends", "validate_signal",
    "verify_once", "write_epochs_csv", "write_epochs_json",
    "write_response_csv", "write_score_json", "write_wav", "zff_pipeline",
    "zfr_pipeline", "zpzfr_pipeline",
]
