"""Exception types shared across the package.

Every error raised by mapchain derives from :class:`MapchainError`; the CLI
maps subtrees of this hierarchy onto its exit codes: :class:`ConfigError`
exits 2, :class:`DataError` (bad input data) exits 3, and every other
mapchain error exits 4.
"""


class MapchainError(Exception):
    """Base class for all mapchain errors.

    Errors pickle by their state rather than by calling the class again with
    ``args``, which holds only the message where a subclass takes other
    arguments; so an error raised in a worker process reaches the parent
    whole.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args, state):
    error = cls.__new__(cls, *args)
    error.args = args
    error.__dict__.update(state)
    return error


class ConfigError(MapchainError):
    """Invalid, out-of-range, or unknown run configuration."""


class DataError(MapchainError):
    """Input data (graph, votes, assignment, seed plan) unusable for the run."""


# --- graph construction and structure ---------------------------------------


class DuplicatePrecinctId(DataError):
    pass


class DanglingEdge(DataError):
    """Edge endpoint does not name a known precinct."""


class DuplicateEdge(DataError):
    """More than one edge for the same unordered node pair."""


class InvalidEdge(DataError):
    """Self-loop or negative shared perimeter."""


class InvalidNodeData(DataError):
    """Node scalar out of range (population < 0, area or perimeter <= 0)."""


class MissingVoteColumn(DataError):
    """A contest lacks a vote entry for some node."""


class DuplicateContest(DataError):
    pass


class DisconnectedGraph(DataError):
    """Input graph is not a single connected component."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        preview = ", ".join(str(c) for c in self.components[:4])
        more = "" if len(self.components) <= 4 else ", ..."
        super().__init__(
            f"graph has {len(self.components)} components: {preview}{more}"
        )


class DisconnectedSubset(DataError):
    """Node subset does not induce a connected subgraph."""


class NegativePerimeter(DataError):
    """A district perimeter came out <= 0; shared_perimeter inputs are bad."""


# --- ingestion ---------------------------------------------------------------


class IngestError(DataError):
    pass


class MissingFile(IngestError):
    """An input CSV does not exist."""


class EmptyFile(IngestError):
    pass


class MissingColumn(IngestError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"missing required column: {column!r}")


class BadNumericField(IngestError):
    """Non-numeric value in a numeric column (row and column reported)."""


class NonNumericVotes(BadNumericField):
    pass


class MissingPrecinct(IngestError):
    """Assignment file does not cover every precinct in the graph."""


class UnknownPrecinct(IngestError):
    """Assignment file names a precinct absent from the graph."""


class EmptyInput(MapchainError):
    pass


# --- metrics -----------------------------------------------------------------


class ZeroVotesDistrict(DataError):
    """A district recorded zero two-party votes in some contest."""

    def __init__(self, district, contest):
        self.district = district
        self.contest = contest
        super().__init__(
            f"district {district} has zero two-party votes in contest {contest!r}"
        )


class UnknownContest(DataError):
    def __init__(self, name, available):
        self.name = name
        super().__init__(
            f"unknown contest {name!r}; available: {sorted(available)}"
        )


# --- samplers ----------------------------------------------------------------


class NoAdjacentDistrictPair(MapchainError):
    """Plan has no pair of adjacent districts (k=1 degenerate input)."""


class InvalidSeedPlan(DataError):
    """Seed plan failed a chain precondition; message names the check."""


class RetryBudgetExhausted(MapchainError):
    pass


class ChainInvariantViolated(MapchainError):
    """A chain plan failed the periodic contiguity or population check."""


# --- diagnostics -------------------------------------------------------------


class ZeroVariance(MapchainError):
    """Series is constant; autocorrelation is undefined."""


class SeriesTooShort(MapchainError):
    pass


class EmptyResult(MapchainError):
    """Burn-in consumed the whole trace."""


class FitUndefined(MapchainError):
    """Fewer than two distinct x-values; no line can be fit."""


# --- oracle ------------------------------------------------------------------


class TooLarge(DataError):
    """Instance exceeds the exhaustive-enumeration guard."""
