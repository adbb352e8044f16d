"""ORM substrate (stands in for Django's model layer).

Provides declarative models, fields, foreign keys, managers, and lazily
evaluated QuerySets that compile to the storage engine.  The registry exposes
the interception hook CacheGenie uses to serve queries from memcached.
"""

from .fields import (AutoField, BooleanField, CharField, Field, FloatField,
                     FloatTimestampField, ForeignKey, IntegerField, TextField)
from .manager import Manager
from .models import Model
from .queryset import QueryDescription, QuerySet
from .registry import QueryInterceptor, Registry, default_registry
from .template import ChainStep, Param, QueryTemplate

__all__ = [
    "AutoField",
    "BooleanField",
    "ChainStep",
    "CharField",
    "Field",
    "FloatField",
    "FloatTimestampField",
    "ForeignKey",
    "IntegerField",
    "Manager",
    "Model",
    "Param",
    "QueryDescription",
    "QueryInterceptor",
    "QuerySet",
    "QueryTemplate",
    "Registry",
    "TextField",
    "default_registry",
]
