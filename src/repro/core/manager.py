"""The CacheGenie orchestrator.

A :class:`CacheGenie` instance wires together one ORM registry, its database,
and a set of memcached servers.  Programmers declare cached objects through
:meth:`cacheable`; CacheGenie then

* builds the cache-class instance (query generation),
* generates and installs the database triggers (trigger generation), and
* registers the object with the ORM interceptor (transparent evaluation).

The primary declaration form is **queryset-native**: pass the ORM query you
already write, with :class:`~repro.orm.template.Param` placeholders marking
the per-entry parameters, and the cache class is inferred from the query's
shape::

    genie.cacheable(Profile.objects.filter(user_id=Param("user_id")))   # FeatureQuery
    genie.cacheable(Friendship.objects.filter(
        from_user_id=Param("u")).count())                               # CountQuery
    genie.cacheable(WallPost.objects.filter(
        user_id=Param("u")).order_by("-date_posted")[:20])              # TopKQuery
    genie.cacheable(Friendship.objects.filter(
        from_user_id=Param("u")).through("to_user"))                    # LinkQuery

The paper's original keyword form
(``cacheable(cache_class_type=..., main_model=..., where_fields=...)``)
remains as a thin adapter that builds the same :class:`QueryTemplate`
internally; its use is tallied as a deprecation-style note in
:meth:`CacheGenie.effort_report`.

The module-level :func:`cacheable` mirrors the paper's free function: it
forwards to the currently activated CacheGenie instance.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from ..errors import CacheClassError, TemplateError
from ..memcache.client import CacheClient
from ..memcache.server import CacheServer
from ..orm.queryset import QuerySet
from ..orm.registry import Registry
from ..orm.template import Param, QueryTemplate
from ..storage.database import Database
from .cache_classes import (BUILTIN_CACHE_CLASSES, CacheClass, CountQuery,
                            LinkQuery, TopKQuery)
from .interception import CacheGenieInterceptor
from .refresh import RefreshQueue
from .stats import CacheGenieStats, DeclarationInfo
from .trigger_queue import TriggerOpQueue
from .triggergen import TriggerGenerator


#: Keywords that define a query's shape.  In the queryset-native form they
#: are inferred from the queryset and may not be overridden per-object.
_SHAPE_KEYWORDS = frozenset({
    "cache_class_type", "main_model", "where_fields",   # legacy-form keys
    "k", "sort_field", "sort_order",                    # TopKQuery shape
    "chain", "order_by", "descending", "limit",         # LinkQuery shape
    "const_filters",                                    # constant equality filters
})


class CacheGenie:
    """The caching middleware: declarative cached objects over ORM + DB + cache."""

    def __init__(
        self,
        registry: Registry,
        database: Optional[Database] = None,
        cache_servers: Optional[Sequence[CacheServer]] = None,
        reuse_trigger_connections: bool = False,
        batch_trigger_ops: bool = True,
        pipeline_batches: bool = True,
        cache_address: str = "cache-host:11211",
    ) -> None:
        self.registry = registry
        self.db = database or registry.db
        self.recorder = self.db.recorder
        if cache_servers is None:
            cache_servers = [CacheServer("cache0")]
        self.cache_servers = list(cache_servers)
        self.cache_address = cache_address
        self.pipeline_batches = pipeline_batches
        #: Client used by the application (and by evaluate()).
        self.app_cache = CacheClient(self.cache_servers, recorder=self.recorder,
                                     pipeline_batches=pipeline_batches)
        #: Client used from inside triggers; charges trigger-side costs.
        self.trigger_cache = CacheClient(
            self.cache_servers, recorder=self.recorder,
            from_trigger=True, reuse_connections=reuse_trigger_connections,
            pipeline_batches=pipeline_batches)
        self.interceptor = CacheGenieInterceptor()
        self.trigger_generator = TriggerGenerator(self)
        self.cached_objects: Dict[str, CacheClass] = {}
        self.stats = CacheGenieStats()
        self._custom_cache_classes: Dict[str, type] = {}
        #: shape fingerprint -> cached-object name, for duplicate detection.
        self._shapes: Dict[str, str] = {}
        self._activated = False
        #: Trigger-side cache operations enqueue here (coalescing per key)
        #: and flush as gets_multi/cas_multi/delete_multi batches when the
        #: database transaction commits (the default since the committed
        #: `--batch-ops` baseline).  ``batch_trigger_ops=False`` flushes
        #: right after each enqueued operation instead: the paper's original
        #: eager per-operation trigger propagation.
        self.batch_trigger_ops = batch_trigger_ops
        self.trigger_op_queue: Optional[TriggerOpQueue] = None
        self._open_op_queue()
        #: Background refresh worker for the stale-serving strategies
        #: (leased invalidation, async-refresh): stale reads schedule one
        #: recompute per key here, drained on subsequent cache activity.
        self.refresh_queue = RefreshQueue(clock=self.now)

    # -- clock / background refresh ----------------------------------------------

    def now(self) -> float:
        """Virtual time in seconds, read from the cache servers' clock."""
        return self.cache_servers[0].clock()

    def schedule_refresh(self, cached_object: CacheClass, key: str,
                         params: Dict[str, Any]) -> bool:
        """Queue one background recompute of ``key`` (deduplicated per key)."""
        return self.refresh_queue.schedule(cached_object, key, params)

    def run_pending_refreshes(self) -> int:
        """Drain due background refreshes (called on every read path entry)."""
        return self.refresh_queue.drain(self.now())

    # -- lifecycle --------------------------------------------------------------

    def _open_op_queue(self) -> None:
        """Create the trigger-op queue and hook it to commit and abort."""
        self.trigger_op_queue = TriggerOpQueue(
            self.trigger_cache, per_operation=not self.batch_trigger_ops)
        self.db.transactions.on_commit.append(self.trigger_op_queue.flush)
        self.db.transactions.on_abort.append(self.trigger_op_queue.discard)

    def activate(self) -> "CacheGenie":
        """Register the interceptor with the ORM registry (idempotent); a
        deactivated genie gets a fresh trigger-op queue."""
        if not self._activated:
            self.registry.add_interceptor(self.interceptor)
            self._activated = True
        if self.trigger_op_queue is None:
            self._open_op_queue()
        _set_active_genie(self)
        return self

    def deactivate(self) -> None:
        """Unregister the interceptor and drop all generated triggers."""
        if self._activated:
            self.registry.remove_interceptor(self.interceptor)
            self._activated = False
        for cached_object in list(self.cached_objects.values()):
            self.remove_cached_object(cached_object.name)
        self.refresh_queue.discard()
        if self.trigger_op_queue is not None:
            self.trigger_op_queue.discard()
            hooks = self.db.transactions
            if self.trigger_op_queue.flush in hooks.on_commit:
                hooks.on_commit.remove(self.trigger_op_queue.flush)
            if self.trigger_op_queue.discard in hooks.on_abort:
                hooks.on_abort.remove(self.trigger_op_queue.discard)
            self.trigger_op_queue = None
        if _active_genie() is self:
            _set_active_genie(None)

    # -- cache class registration -------------------------------------------------

    def register_cache_class(self, cache_class: type) -> None:
        """Register a custom cache class (the paper's extensibility story)."""
        if not issubclass(cache_class, CacheClass):
            raise CacheClassError(
                f"{cache_class!r} does not subclass CacheClass"
            )
        self._custom_cache_classes[cache_class.cache_class_type] = cache_class

    def _resolve_cache_class(self, type_name: str) -> type:
        if type_name in self._custom_cache_classes:
            return self._custom_cache_classes[type_name]
        if type_name in BUILTIN_CACHE_CLASSES:
            return BUILTIN_CACHE_CLASSES[type_name]
        raise CacheClassError(
            f"unknown cache_class_type {type_name!r}; known types: "
            f"{sorted(set(BUILTIN_CACHE_CLASSES) | set(self._custom_cache_classes))}"
        )

    # -- the cacheable() API --------------------------------------------------------

    def cacheable(self, query: Any = None, *legacy_args: Any,
                  **kwargs: Any) -> CacheClass:
        """Declare a cached object.

        Two forms are accepted:

        * **Queryset-native** (preferred) — pass a queryset template (or the
          :class:`QueryTemplate` a template's ``.count()`` returns) whose
          ``Param(...)`` placeholders become the per-entry parameters; the
          cache class is inferred from the query shape::

              genie.cacheable(Profile.objects.filter(user_id=Param("user_id")))

        * **Legacy keywords** — the paper's original stringly-typed call
          (``cache_class_type=..., main_model=..., where_fields=[...]``),
          kept as a thin adapter over the same template machinery; counted
          as deprecated in :meth:`effort_report`.

        Returns the cached-object instance, whose ``evaluate(**where_values)``
        method can be used for explicit lookups when transparency is off.
        """
        if isinstance(query, str) or (query is None and "cache_class_type" in kwargs):
            # Legacy form; positional use was cacheable(type, model, fields[, name]).
            positional = ("main_model", "where_fields", "name")
            if len(legacy_args) > len(positional):
                raise CacheClassError(
                    "too many positional arguments for the legacy cacheable() "
                    "form; options beyond name are keyword-only")
            if query is not None:
                kwargs["cache_class_type"] = query
            for value, key in zip(legacy_args, positional):
                kwargs[key] = value
            return self._cacheable_legacy(**kwargs)
        if legacy_args:
            raise CacheClassError(
                "cacheable() takes a single queryset template; per-object "
                "options are keyword-only")
        if query is None:
            raise CacheClassError(
                "cacheable() needs a queryset template (or, for the legacy "
                "form, cache_class_type=/main_model=/where_fields= keywords)")
        return self._cacheable_from_query(query, **kwargs)

    def _cacheable_from_query(
        self,
        query: Union[QuerySet, QueryTemplate],
        name: Optional[str] = None,
        update_strategy: Optional[str] = None,
        use_transparently: bool = True,
        expiry_seconds: Optional[float] = None,
        **params: Any,
    ) -> CacheClass:
        """The queryset-native declaration path: normalize, infer, install."""
        if isinstance(query, QuerySet):
            template = QueryTemplate.from_queryset(query)
        elif isinstance(query, QueryTemplate):
            template = query
        else:
            raise CacheClassError(
                f"cacheable() expected a QuerySet template or QueryTemplate, "
                f"got {type(query).__name__}")
        # Shape-defining options come from the queryset itself; letting a
        # keyword override them would desync the constructed object from the
        # template that interception matches against (e.g. a k=10 object
        # behind a limit=20 template would silently truncate results).
        forbidden = _SHAPE_KEYWORDS.intersection(params)
        if forbidden:
            raise CacheClassError(
                f"option(s) {sorted(forbidden)} are derived from the queryset "
                f"shape; express them in the queryset (filter/order_by/slice/"
                f"through/count) instead of overriding them")
        cache_class = self._resolve_cache_class(template.infer_cache_class())
        return self._install(
            cache_class, template,
            name=name or self._default_name(cache_class, template.model,
                                            template.param_fields),
            update_strategy=update_strategy,
            use_transparently=use_transparently,
            expiry_seconds=expiry_seconds,
            declared_api=DeclarationInfo.QUERYSET,
            params=params,  # shape-neutral options (e.g. reserve=)
        )

    def _cacheable_legacy(
        self,
        cache_class_type: str,
        main_model: Union[str, type],
        where_fields: Sequence[str],
        name: Optional[str] = None,
        update_strategy: Optional[str] = None,
        use_transparently: bool = True,
        expiry_seconds: Optional[float] = None,
        **params: Any,
    ) -> CacheClass:
        """The paper's keyword form: a thin adapter over the template path.

        The cache class is named explicitly instead of inferred; the keywords
        become the :class:`QueryTemplate` the queryset form would build, so
        construction, matching and duplicate detection are the same.
        """
        cache_class = self._resolve_cache_class(cache_class_type)
        model = (self.registry.get_model(main_model)
                 if isinstance(main_model, str) else main_model)
        try:
            template = _keyword_template(cache_class, model, where_fields,
                                         params)
        except TemplateError as exc:
            raise CacheClassError(
                f"invalid {cache_class_type} declaration: {exc}") from exc
        return self._install(
            cache_class, template,
            name=name or self._default_name(cache_class, model, where_fields),
            update_strategy=update_strategy,
            use_transparently=use_transparently,
            expiry_seconds=expiry_seconds,
            declared_api=DeclarationInfo.KEYWORDS,
            params=params,
        )

    def _install(self, cache_class: type, template: QueryTemplate, name: str,
                 update_strategy: Optional[str], use_transparently: bool,
                 expiry_seconds: Optional[float], declared_api: str,
                 params: Dict[str, Any]) -> CacheClass:
        """Shared tail of both declaration paths: build, check, install."""
        if not self._activated:
            self.activate()
        if name in self.cached_objects:
            raise CacheClassError(f"cached object {name!r} already defined")
        cached_object = cache_class(
            name=name,
            genie=self,
            template=template,
            update_strategy=update_strategy,
            use_transparently=use_transparently,
            expiry_seconds=expiry_seconds,
            **params,
        )
        shape = cached_object.template.shape_fingerprint()
        existing = self._shapes.get(shape)
        if existing is not None:
            raise CacheClassError(
                f"cached objects {existing!r} and {name!r} declare the "
                f"same query shape [{shape}]; a second declaration would only "
                f"install redundant triggers (the first-registered object "
                f"serves all matching queries)")
        self.cached_objects[name] = cached_object
        self.stats.per_object[name] = cached_object.stats
        self.stats.declarations[name] = DeclarationInfo(
            api=declared_api,
            cache_class=cache_class.cache_class_type,
            inferred=declared_api == DeclarationInfo.QUERYSET,
            shape=shape,
        )
        self._shapes[shape] = name
        self.trigger_generator.install_for(cached_object)
        self.interceptor.register(cached_object)
        return cached_object

    @staticmethod
    def _default_name(cache_class: type, model: type,
                      where_fields: Sequence[str]) -> str:
        return (f"{cache_class.cache_class_type.lower()}_"
                f"{model.__name__.lower()}_by_" + "_".join(where_fields))

    def remove_cached_object(self, name: str) -> None:
        """Drop a cached object, its triggers, its interception, and its stats."""
        cached_object = self.cached_objects.pop(name, None)
        if cached_object is None:
            raise CacheClassError(f"no cached object named {name!r}")
        # Per-object accounting must go with the object, or totals() and
        # effort_report() keep counting work for objects that no longer exist.
        self.stats.per_object.pop(name, None)
        self.stats.declarations.pop(name, None)
        # Pending background refreshes too: a refresh outliving its object
        # would recompute a dead query and repopulate a trigger-less key.
        self.refresh_queue.discard_for(cached_object)
        shape = cached_object.template.shape_fingerprint()
        if self._shapes.get(shape) == name:
            del self._shapes[shape]
        self.trigger_generator.uninstall_for(cached_object)
        self.interceptor.unregister(cached_object)

    # -- introspection / metrics -------------------------------------------------------

    @property
    def cached_object_count(self) -> int:
        return len(self.cached_objects)

    @property
    def trigger_count(self) -> int:
        return self.trigger_generator.trigger_count

    @property
    def generated_trigger_lines(self) -> int:
        return self.trigger_generator.generated_line_count

    def effort_report(self) -> Dict[str, Any]:
        """Programmer-effort metrics matching §5.2 of the paper.

        Alongside the paper's counters, reports how each object was declared;
        legacy keyword declarations produce a deprecation-style note nudging
        toward the queryset-native form.
        """
        counts = self.stats.declaration_counts()
        legacy = counts.get(DeclarationInfo.KEYWORDS, 0)
        report: Dict[str, Any] = {
            "cached_objects": self.cached_object_count,
            "generated_triggers": self.trigger_count,
            "generated_trigger_lines": self.generated_trigger_lines,
            "queryset_declarations": counts.get(DeclarationInfo.QUERYSET, 0),
            "legacy_keyword_declarations": legacy,
        }
        if legacy:
            report["notes"] = [
                f"{legacy} cached object(s) use the deprecated keyword form "
                f"cacheable(cache_class_type=...); declare them from a "
                f"queryset template (cacheable(Model.objects.filter("
                f"field=Param(...)))) to get shape checking and inference"
            ]
        return report

    def declaration_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-object declared-vs-inferred metadata (api, cache class, shape)."""
        return {name: info.as_dict()
                for name, info in self.stats.declarations.items()}

    def cache_hit_ratio(self) -> float:
        totals = self.stats.totals()
        return totals.hit_ratio

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheGenie {self.cached_object_count} cached objects, "
            f"{self.trigger_count} triggers>"
        )


def _keyword_template(cache_class: type, model: type,
                      where_fields: Sequence[str],
                      params: Dict[str, Any]) -> QueryTemplate:
    """The paper's keyword form as the queryset it stands for.

    Pops the shape keywords of ``cache_class``'s family out of ``params``
    (what is left is shape-neutral, such as ``reserve=``) and normalizes the
    queryset with :meth:`QueryTemplate.from_queryset`, the validator the
    queryset form goes through.
    """
    queryset = model.objects.filter(
        **{field: Param(field) for field in where_fields})
    queryset = queryset.filter(**(params.pop("const_filters", None) or {}))
    type_name = cache_class.cache_class_type
    if issubclass(cache_class, LinkQuery):
        chain = params.pop("chain", None)
        if not chain:
            raise CacheClassError(
                f"{type_name} requires a non-empty relationship chain")
        queryset = queryset.through(*chain)
        order_by = params.pop("order_by", None)
        descending = params.pop("descending", True)
        if order_by is not None:
            queryset = queryset.order_by(("-" if descending else "") + order_by)
        limit = params.pop("limit", None)
        if limit is not None:
            queryset = queryset[:limit]
    elif issubclass(cache_class, TopKQuery):
        sort_order = params.pop("sort_order", "descending")
        if sort_order not in ("ascending", "descending"):
            raise CacheClassError(
                f"sort_order must be 'ascending' or 'descending', got "
                f"{sort_order!r}")
        if "sort_field" not in params or "k" not in params:
            raise CacheClassError(f"{type_name} requires sort_field= and k=")
        sign = "-" if sort_order == "descending" else ""
        queryset = queryset.order_by(sign + params.pop("sort_field"))
        queryset = queryset[:params.pop("k")]
    if issubclass(cache_class, CountQuery):
        return queryset.count()
    return QueryTemplate.from_queryset(queryset)


# -- module-level cacheable(), like the paper's free function -----------------------

_ACTIVE_GENIE: Optional[CacheGenie] = None


def _set_active_genie(genie: Optional[CacheGenie]) -> None:
    global _ACTIVE_GENIE
    _ACTIVE_GENIE = genie


def _active_genie() -> Optional[CacheGenie]:
    return _ACTIVE_GENIE


def cacheable(*args: Any, **kwargs: Any) -> CacheClass:
    """Declare a cached object on the currently active CacheGenie instance.

    The queryset-native form mirrors how the object will be queried::

        cached_user_profile = cacheable(
            Profile.objects.filter(user_id=Param("user_id")))

    The paper's legacy keyword form is also accepted::

        cached_user_profile = cacheable(cache_class_type='FeatureQuery',
                                        main_model='Profile',
                                        where_fields=['user_id'])
    """
    genie = _active_genie()
    if genie is None:
        raise CacheClassError(
            "no active CacheGenie instance; create one and call activate() first"
        )
    return genie.cacheable(*args, **kwargs)
