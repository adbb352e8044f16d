"""Dataset generation for the social application.

The paper initializes its database with 1 million users, 1000 unique
bookmarks, 1–20 bookmark instances per unique bookmark, 1–50 friends and
1–100 pending invitations per user (~10 GB).  That scale exists to exceed the
database machine's 2 GB of RAM; the *shape* of the experiments only needs the
working set to exceed the (scaled-down) buffer pool.  ``SeedScale`` exposes
every knob so experiments pick a laptop-sized dataset with the same ratios.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, replace
from typing import Any, Dict, List, Tuple

from .models import (Bookmark, BookmarkInstance, Friendship,
                     FriendshipInvitation, Profile, User, WallPost,
                     social_registry)


@dataclass
class SeedScale:
    """Dataset size knobs (defaults are the scaled-down evaluation dataset)."""

    users: int = 300
    unique_bookmarks: int = 100
    max_instances_per_bookmark: int = 6
    max_friends_per_user: int = 8
    max_pending_invitations_per_user: int = 4
    max_wall_posts_per_user: int = 6
    seed: int = 42

    @classmethod
    def tiny(cls) -> "SeedScale":
        """A very small dataset for unit tests."""
        return cls(users=20, unique_bookmarks=10, max_instances_per_bookmark=3,
                   max_friends_per_user=4, max_pending_invitations_per_user=2,
                   max_wall_posts_per_user=3, seed=7)

    @classmethod
    def paper_ratio(cls, users: int = 1000) -> "SeedScale":
        """Scale following the paper's per-user ratios for a given user count."""
        return cls(
            users=users,
            unique_bookmarks=max(10, users // 10),
            max_instances_per_bookmark=20,
            max_friends_per_user=50,
            max_pending_invitations_per_user=10,
            max_wall_posts_per_user=10,
            seed=42,
        )


@dataclass
class SeedSummary:
    """Row counts produced by :func:`seed_database`."""

    users: int
    profiles: int
    bookmarks: int
    bookmark_instances: int
    friendships: int
    invitations: int
    wall_posts: int

    def as_dict(self) -> Dict[str, int]:
        return self.__dict__.copy()


#: What this process has seeded: (the ``SeedScale`` fields, the buffer pool's
#: pages, the table names) -> (the ``Database.snapshot()`` bytes, the summary).
_SEEDED: Dict[Tuple[Any, ...], Tuple[bytes, SeedSummary]] = {}


def seed_database(scale: SeedScale) -> SeedSummary:
    """Populate the bound database with a synthetic social network.

    Experiments install CacheGenie *after* seeding, exactly as the original
    system adds caching to an existing site.  The first call for a key seeds
    through the ORM and keeps a snapshot of the result; every later call
    restores that snapshot into the freshly created tables, which leaves the
    same rows, trees, pages and counters.  Either way the database must be
    unused, and no clock is read.
    """
    database = social_registry.db
    key = (astuple(scale), database.buffer_pool.capacity_pages,
           tuple(database.table_names()))
    seeded = _SEEDED.get(key)
    if seeded is not None:
        snapshot, summary = seeded
        database.restore(snapshot)
        return replace(summary)
    database.require_unused()
    summary = _seed(scale)
    _SEEDED[key] = database.snapshot(), summary
    return replace(summary)


def _seed(scale: SeedScale) -> SeedSummary:
    """Seed through the ORM: table inserts via each model's ``save``."""
    rng = random.Random(scale.seed)
    now = 1_000_000.0

    user_ids: List[int] = []
    for i in range(scale.users):
        user = User(username=f"user{i}", email=f"user{i}@example.com",
                    date_joined=now - rng.uniform(0, 100_000))
        user.save()
        user_ids.append(user.pk)
        # Profiles carry a realistic amount of user-entered text; this is what
        # makes the dataset larger than the scaled-down buffer pool (the paper's
        # 10 GB database vs 2 GB of RAM), so the disk matters.
        Profile(user_id=user.pk, name=f"User {i}",
                about=(f"About user {i}. " * 40),
                location=f"City {i % 50}",
                website=f"http://example.com/~user{i}").save()

    bookmark_ids: List[int] = []
    for i in range(scale.unique_bookmarks):
        bookmark = Bookmark(url=f"http://example.com/page/{i}",
                            description=f"Shared page {i}",
                            added=now - rng.uniform(0, 100_000),
                            adder_id=rng.choice(user_ids))
        bookmark.save()
        bookmark_ids.append(bookmark.pk)

    instances = 0
    for bookmark_id in bookmark_ids:
        for _ in range(rng.randint(1, scale.max_instances_per_bookmark)):
            BookmarkInstance(bookmark_id=bookmark_id,
                             user_id=rng.choice(user_ids),
                             description="saved " * 30, note="note " * 20,
                             added=now - rng.uniform(0, 50_000)).save()
            instances += 1

    friendships = 0
    for user_id in user_ids:
        friend_count = rng.randint(1, scale.max_friends_per_user)
        friends = rng.sample(user_ids, min(friend_count, len(user_ids)))
        for friend_id in friends:
            if friend_id == user_id:
                continue
            Friendship(from_user_id=user_id, to_user_id=friend_id,
                       added=now - rng.uniform(0, 50_000)).save()
            friendships += 1

    invitations = 0
    for user_id in user_ids:
        for _ in range(rng.randint(1, scale.max_pending_invitations_per_user)):
            sender = rng.choice(user_ids)
            if sender == user_id:
                continue
            FriendshipInvitation(from_user_id=sender, to_user_id=user_id,
                                 message="hi", status=FriendshipInvitation.STATUS_PENDING,
                                 sent=now - rng.uniform(0, 20_000)).save()
            invitations += 1

    wall_posts = 0
    for user_id in user_ids:
        for _ in range(rng.randint(0, scale.max_wall_posts_per_user)):
            WallPost(user_id=user_id, sender_id=rng.choice(user_ids),
                     content="hello there, this is a wall post! " * 15,
                     date_posted=now - rng.uniform(0, 20_000)).save()
            wall_posts += 1

    return SeedSummary(
        users=len(user_ids),
        profiles=len(user_ids),
        bookmarks=len(bookmark_ids),
        bookmark_instances=instances,
        friendships=friendships,
        invitations=invitations,
        wall_posts=wall_posts,
    )
