"""Client environment and viewer behaviour models.

The paper's side-channel exists because the *client* (the viewer's browser)
sends small state-reporting JSON messages whose encrypted record lengths fall
into narrow, condition-dependent bands.  This package models everything on the
client side that shapes those lengths:

* :mod:`repro.client.profiles` — the operational conditions of Table I
  (operating system, platform, browser, connection type, time of day) and the
  payload-size parameters each combination induces;
* :mod:`repro.client.json_state` — construction of the type-1 ("a question is
  on screen") and type-2 ("the non-default branch was picked") JSON messages;
* :mod:`repro.client.viewer` — behaviour-conditioned choice making for the
  synthetic viewer population.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".profiles": "BROWSERS CONNECTION_TYPES OPERATING_SYSTEMS PLATFORMS"
            " TRAFFIC_CONDITIONS ClientProfile OperationalCondition"
            " enumerate_conditions figure2_conditions profile_for",
        ".json_state": "JSON_TYPE_1 JSON_TYPE_2 StateMessage build_type1_message"
            " build_type2_message",
        ".viewer": "ViewerBehavior ViewerChoiceModel",
    },
)
