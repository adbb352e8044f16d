"""CacheGenie reproduction: a trigger-based middleware cache for ORMs.

This package reproduces "A Trigger-Based Middleware Cache for ORMs"
(MIDDLEWARE 2011) as a self-contained Python library:

* ``repro.storage``  — relational engine substrate (PostgreSQL stand-in)
* ``repro.memcache`` — LRU key-value cache substrate (memcached stand-in)
* ``repro.orm``      — declarative ORM substrate (Django stand-in)
* ``repro.core``     — CacheGenie itself: cache classes, ``cacheable()``,
                       trigger generation, transparent interception
* ``repro.apps``     — the Pinax-substitute social application
* ``repro.workload`` — workload configuration and trace generation
* ``repro.sim``      — discrete-event performance simulation
* ``repro.bench``    — the paper's experiments and reporting

Quickstart::

    from repro.bench import Scenario, ScenarioConfig
    scenario = Scenario(ScenarioConfig(name="Update")).setup()
    page = scenario.app.lookup_bookmarks(user_id=1)
"""

__version__ = "1.0.0"

from . import errors

__all__ = ["errors", "__version__"]
