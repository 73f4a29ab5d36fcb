"""Interactive streaming session simulator.

This package drives everything end to end: it walks the story graph the way
the Netflix player does (Figure 1 of the paper), makes the viewer's choices
via the behaviour model, emits the client's state-report JSON messages and
media requests, streams chunks from the server model, prefetches the default
branch around every choice point, and hands every byte to the TLS and TCP
layers so the capture sink ends up with a realistic packet trace.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".events": "EventKind SessionEvent",
        ".buffer": "PlaybackBuffer",
        ".abr": "AdaptiveBitrateController",
        ".prefetch": "PrefetchPlan Prefetcher",
        ".server": "StreamingServer",
        ".session": "InteractiveStreamingSession SessionConfig SessionResult"
            " simulate_session",
    },
)
