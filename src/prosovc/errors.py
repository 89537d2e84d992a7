"""Exception types shared across the pipeline.

Each class carries the process exit code the CLI uses when the error
escapes a command: 2 for file/input problems, then one code per
subsystem so failures are distinguishable in scripts.
"""


class ProsoVCError(Exception):
    exit_code = 1


# -- file and input ingestion (exit 2) --------------------------------------

class UnreadableFile(ProsoVCError):
    exit_code = 2


class UnwritableFile(ProsoVCError):
    exit_code = 2


class UnsupportedFormat(ProsoVCError):
    exit_code = 2


class ParseError(ProsoVCError):
    exit_code = 2


# -- signal analysis (exit 3) ------------------------------------------------

class InvalidCutoff(ProsoVCError):
    exit_code = 3


class TooShort(ProsoVCError):
    exit_code = 3


class ConfigMismatch(ProsoVCError):
    exit_code = 3


# -- prosody and units (exit 4) ----------------------------------------------

class InsufficientData(ProsoVCError):
    exit_code = 4


class DimMismatch(ProsoVCError):
    exit_code = 4


class EmptySequence(ProsoVCError):
    exit_code = 4


# -- prosody transforms (exit 5) ---------------------------------------------

class NoVoicedFrames(ProsoVCError):
    exit_code = 5


class NonPositiveF0(ProsoVCError):
    exit_code = 5


class F0OutOfRange(ProsoVCError):
    exit_code = 5


class CurveLengthMismatch(ProsoVCError):
    exit_code = 5


# -- conditioning and diffusion (exit 6) ---------------------------------------

class BadDim(ProsoVCError):
    exit_code = 6


class ShapeMismatch(ProsoVCError):
    exit_code = 6


class NonFiniteLoss(ProsoVCError):
    exit_code = 6


class NonFiniteSample(ProsoVCError):
    exit_code = 6


# -- alignments and embeddings (exit 7) ----------------------------------------

class NonMonotonic(ProsoVCError):
    exit_code = 7


class Overlap(ProsoVCError):
    exit_code = 7


class OutOfRange(ProsoVCError):
    exit_code = 7


# -- evaluation (exit 8) -------------------------------------------------------

class LengthMismatch(ProsoVCError):
    exit_code = 8


class NoCommonVoiced(ProsoVCError):
    exit_code = 8
