"""The social app's cached objects against sqlite.

Each cached object's query is rebuilt from its :class:`QueryTemplate` alone —
base table, ``Param`` columns, constant filters, the ``through()`` chain as
joins, ORDER BY and K — and run in a :class:`~tests.sqlmirror.Mirror` of the
seeded database.  That checks the ORM → template → storage compile of every
object, LinkQuery's join chain included, against an engine written elsewhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace


from repro.apps.social.cached_objects import EXPECTED_CACHED_OBJECTS
from repro.apps.social.models import Friendship, FriendshipInvitation, WallPost
from repro.orm.template import Param, QueryTemplate, resolve_chain_models
from repro.storage import CountQuery, Join, OrderBy, SelectQuery
from repro.storage.predicates import And, Comparison
from tests.sqlmirror import Mirror, bag


def template_query(template: QueryTemplate, params):
    """The storage query ``template`` stands for, with ``params`` bound."""
    models = resolve_chain_models(template.model, template.chain)
    joins = []
    for step, here, there in zip(template.chain, models, models[1:]):
        if step.direction == "forward":
            joins.append(Join(here._meta.db_table, here._meta.get_field(step.field).column,
                              there._meta.db_table, there._meta.pk_column))
        else:
            joins.append(Join(here._meta.db_table, here._meta.pk_column,
                              there._meta.db_table, there._meta.get_field(step.field).column))
    predicate = And([Comparison(column, "=", value) for column, value
                     in [*params.items(), *template.const_filters]])
    if template.kind == "count":
        return CountQuery(template.table, predicate, joins=joins)
    return SelectQuery(template.table, predicate, joins=joins,
                       select_from=models[-1]._meta.db_table,
                       order_by=[OrderBy(c, d) for c, d in template.order_by],
                       limit=template.limit)


def test_every_recompute_agrees_with_sqlite(social_genie):
    db, cached = social_genie["database"], social_genie["cached"]
    assert len(cached) == EXPECTED_CACHED_OBJECTS
    mirror = Mirror.of(db)
    users = range(1, social_genie["seed"].users + 1)
    for obj in cached.values():
        (column,) = obj.template.param_fields
        for user in users:
            query = template_query(obj.template, {column: user})
            mirror.expect(db, query)(obj._present(obj.compute_from_db({column: user})))


def test_shapes_the_app_never_declares_agree_with_sqlite(social_genie):
    """Ascending Top-K with its reserve rows (LIMIT k + reserve), a LinkQuery
    ordered and limited, and constant-filtered Feature and Count shapes."""
    genie, db = social_genie["genie"], social_genie["database"]
    pending = FriendshipInvitation.STATUS_PENDING
    users = range(1, social_genie["seed"].users + 1)
    for user in users:                    # rows the constant filter drops
        FriendshipInvitation(from_user_id=user % len(users) + 1,
                             to_user_id=user,
                             status=FriendshipInvitation.STATUS_DECLINED).save()
    invitations = FriendshipInvitation.objects.filter(
        to_user_id=Param("to_user_id"), status=pending)
    declared = [
        genie.cacheable(WallPost.objects.filter(user_id=Param("user_id"))
                        .order_by("date_posted")[:1],
                        name="oldest_wall_post", reserve=1),
        genie.cacheable(Friendship.objects.filter(
            from_user_id=Param("from_user_id"))
            .through("to_user", ("reverse", "BookmarkInstance", "user"))
            .order_by("added")[:3], name="first_friend_bookmarks"),
        genie.cacheable(invitations, name="pending_invitations"),
        genie.cacheable(invitations.count(), name="pending_invitations_count"),
    ]
    assert declared[0].template.limit == 1 and declared[0].capacity == 2
    mirror = Mirror.of(db)
    for obj in declared:
        (column,) = obj.template.param_fields
        template = replace(obj.template,
                           limit=obj.capacity or obj.template.limit)
        for user in users:
            query = template_query(template, {column: user})
            mirror.expect(db, query)(obj.compute_from_db({column: user}))
    assert max(len(declared[0].compute_from_db({"user_id": user}))
               for user in users) == 2


def test_friend_bookmarks_keeps_the_joins_multiplicity(social_genie):
    """sqlite's join returns a bookmark once per copy of the friendship
    edge that reaches it, so twice after AcceptFR wrote the edge twice; the
    maintained friend_bookmarks holds a bookmark saved afterwards twice."""
    app, cached = social_genie["app"], social_genie["cached"]
    pending = FriendshipInvitation.STATUS_PENDING
    user = next(u for u in range(1, social_genie["seed"].users + 1)
                if not FriendshipInvitation.objects.filter(
                    to_user_id=u, status=pending).count())
    friend = 3 if user != 3 else 4
    for _ in range(2):                    # accepted twice: the edge twice
        FriendshipInvitation(from_user_id=friend, to_user_id=user,
                             status=pending).save()
    friend_bookmarks = cached["friend_bookmarks"]
    friend_bookmarks.evaluate(from_user_id=user)             # cached
    for _ in range(2):
        assert app.accept_friend_request(user).shown["other_user"] == friend
    app.create_bookmark(friend)
    maintained = friend_bookmarks.evaluate(from_user_id=user)
    query = template_query(friend_bookmarks.template, {"from_user_id": user})
    joined = Mirror.of(social_genie["database"]).select(query)
    assert Counter(row["user_id"] for row in joined)[friend] > 0
    assert bag(maintained) == bag(joined)
