"""Social-networking models (the Pinax substitute).

The paper's evaluation ports three Pinax applications — profiles, friends,
and bookmarks — and exercises four page types.  These models mirror the
schema those applications use:

* ``User`` / ``Profile`` — administrative account data and user-entered
  profile details, related by ``user_id`` (the paper's FeatureQuery example).
* ``Friendship`` / ``FriendshipInvitation`` — the friends app; friendships
  are stored directionally (two rows per accepted friendship), invitations
  move from pending to accepted.
* ``Bookmark`` / ``BookmarkInstance`` — the bookmarks app: a ``Bookmark`` is
  the unique URL entity, a ``BookmarkInstance`` is one user saving it.
* ``WallPost`` — the wall used by the paper's Top-K trigger example (§3.2).

Models are declared against a dedicated registry so the social app can be
instantiated alongside other example apps without table-name collisions.
"""

from __future__ import annotations

from ...orm import (BooleanField, CharField, FloatTimestampField, ForeignKey,
                    IntegerField, Model, Registry, TextField)

#: Registry holding the social app's models; bind it to a Database to use it.
social_registry = Registry("social")


class User(Model):
    """An account: login name plus administrative flags."""

    username = CharField(max_length=80, unique=True)
    email = CharField(max_length=120, null=True)
    is_active = BooleanField(default=True)
    date_joined = FloatTimestampField()

    class Meta:
        registry = social_registry
        db_table = "auth_user"


class Profile(Model):
    """User-entered profile details, one row per user."""

    user = ForeignKey(User)
    name = CharField(max_length=120, null=True)
    about = TextField(null=True)
    location = CharField(max_length=80, null=True)
    website = CharField(max_length=200, null=True)

    class Meta:
        registry = social_registry
        db_table = "profiles_profile"


class Friendship(Model):
    """A directed friendship edge; accepted friendships store two rows."""

    from_user = ForeignKey(User)
    to_user = ForeignKey(User)
    added = FloatTimestampField()

    class Meta:
        registry = social_registry
        db_table = "friends_friendship"


class FriendshipInvitation(Model):
    """A pending (or historical) friend request."""

    STATUS_PENDING = 2
    STATUS_ACCEPTED = 5
    STATUS_DECLINED = 6

    from_user = ForeignKey(User)
    to_user = ForeignKey(User)
    message = TextField(null=True)
    sent = FloatTimestampField()
    status = IntegerField(default=STATUS_PENDING, db_index=True)

    class Meta:
        registry = social_registry
        db_table = "friends_friendshipinvitation"


class Bookmark(Model):
    """A unique URL that one or more users have saved."""

    url = CharField(max_length=500, db_index=True)
    description = TextField(null=True)
    added = FloatTimestampField()
    adder = ForeignKey(User, null=True)

    class Meta:
        registry = social_registry
        db_table = "bookmarks_bookmark"


class BookmarkInstance(Model):
    """One user's saved copy of a bookmark."""

    bookmark = ForeignKey(Bookmark)
    user = ForeignKey(User)
    description = TextField(null=True)
    note = TextField(null=True)
    added = FloatTimestampField(db_index=True)

    class Meta:
        registry = social_registry
        db_table = "bookmarks_bookmarkinstance"


class WallPost(Model):
    """A note posted on a user's wall by a friend (the §3.2 Top-K example)."""

    user = ForeignKey(User)
    sender = ForeignKey(User)
    content = TextField()
    date_posted = FloatTimestampField(db_index=True)

    class Meta:
        registry = social_registry
        db_table = "wall_post"


#: All social models in dependency order (used by seeding and tests).
ALL_MODELS = [User, Profile, Friendship, FriendshipInvitation,
              Bookmark, BookmarkInstance, WallPost]
