"""Page-load logic for the social application.

The paper's workload exercises four user actions plus login/logout (§5.1):

* ``LookupBM``  — look up a list of the user's own bookmarks;
* ``LookupFBM`` — look up bookmarks created by the user's friends;
* ``CreateBM``  — add a new bookmark;
* ``AcceptFR``  — accept a pending friend invitation.

Each page issues a realistic mix of read queries (header badges, profile,
lists, counts) and — for the write pages — a handful of writes.  The same
code runs in all three evaluation configurations: with CacheGenie installed
the frequent reads are served transparently from memcached; without it every
query goes to the database.  Join-shaped queries (friends, friend bookmarks)
use the corresponding LinkQuery cached object when one is registered and fall
back to ORM traversals otherwise, matching the paper's explicit-``evaluate``
usage for objects flagged ``use_transparently=False``.

When the cached objects' genie batches (``batch_trigger_ops``, the default;
``--batch-ops off`` disables it) the hot cached fragments of each page —
header badges, account rows, the wall Top-K, the bookmark lists — are
fetched through :func:`repro.core.evaluate_many` instead of one cache round
trip per query: all of a fragment group's keys travel in a single multi-get
per cache server.  Query shapes that no cached object covers keep going to the
database, exactly as before.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...core.cache_classes.base import evaluate_many
from ...errors import DoesNotExist
from ...obs import hooks
from .models import (Bookmark, BookmarkInstance, Friendship,
                     FriendshipInvitation, Profile, User, WallPost)

#: Page-type names used by the workload generator and reporting.
PAGE_LOGIN = "Login"
PAGE_LOGOUT = "Logout"
PAGE_LOOKUP_BM = "LookupBM"
PAGE_LOOKUP_FBM = "LookupFBM"
PAGE_CREATE_BM = "CreateBM"
PAGE_ACCEPT_FR = "AcceptFR"

READ_PAGES = (PAGE_LOOKUP_BM, PAGE_LOOKUP_FBM)
WRITE_PAGES = (PAGE_CREATE_BM, PAGE_ACCEPT_FR)


@dataclass
class PageResult:
    """What one rendered page showed.

    ``shown`` maps each fragment to the values it displays, held by
    reference exactly as the fragment got them: counts, row mappings (a
    cached row is a read-only view over the stored dict), model instances,
    or lists of them; a fragment of several values (the header) is a dict.
    Nothing is copied or hashed while rendering.  The same page shows the
    same values with or without the cache (§3.1), which is what
    ``tests/apps/test_page_oracle.py`` checks.
    """

    page: str
    user_id: int
    shown: Dict[str, Any] = field(default_factory=dict)


class SocialApplication:
    """Renders the social site's pages against the ORM (and cached objects).

    A page and each of its fragments is a boundary on
    :mod:`repro.obs.hooks`' chain: a pause — where the concurrent replay
    engine may suspend one simulated worker and advance another — then a
    span.
    """

    def __init__(self, cached_objects: Optional[Dict[str, Any]] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.cached = cached_objects or {}
        self.rng = rng or random.Random(0)
        #: Whether pages batch their fragment reads: the cached objects'
        #: genie's one ``batch_ops`` setting, read once here.
        self.batch_reads = bool(self.cached) and next(
            iter(self.cached.values())).genie.batch_trigger_ops

    # -- batched fragment fetching ----------------------------------------------

    def _fetch_many(self, requests: Sequence[Tuple[str, Dict[str, Any]]],
                    ) -> Optional[List[Any]]:
        """Fetch several cached fragments with one multi-get round trip.

        ``requests`` names registered cached objects and their parameters.
        Returns None (caller falls back to per-query rendering) unless
        batching is enabled and every named object is registered.
        """
        if not self.batch_reads:
            return None
        pairs = []
        for name, params in requests:
            cached_object = self.cached.get(name)
            if cached_object is None:
                return None
            pairs.append((cached_object, params))
        return evaluate_many(pairs)

    # -- shared fragments -------------------------------------------------------

    def _render_header(self, user_id: int) -> Dict[str, Any]:
        """The header shown on every page: badges for friends/invites/bookmarks.

        Pinax templates recompute these fragments in several template blocks,
        which is why the paper observes ~80 queries per page load; the header
        alone accounts for a dozen (all of them cacheable patterns).  With
        batching on, the whole dozen rides one multi-get per cache server.
        """
        with hooks.span("app:header", pause=True, user=user_id):
            return self._render_header_body(user_id)

    def _render_header_body(self, user_id: int) -> Dict[str, Any]:
        fetched = self._fetch_many([
            ("user_by_id", {"id": user_id}),
            ("user_profile", {"user_id": user_id}),
            ("friend_count", {"from_user_id": user_id}),
            ("pending_invitation_count", {"to_user_id": user_id}),
            ("user_bookmark_count", {"user_id": user_id}),
            ("wall_post_count", {"user_id": user_id}),
            ("friendships_of_user", {"from_user_id": user_id}),
            ("invitations_to_user", {"to_user_id": user_id}),
        ])
        if fetched is not None:
            (_user, _profile, friend_count, invitation_count,
             bookmark_count, wall_count, friendships, invitations) = fetched
        else:
            list(User.objects.filter(id=user_id))
            list(Profile.objects.filter(user_id=user_id))
            friend_count = Friendship.objects.filter(from_user_id=user_id).count()
            invitation_count = FriendshipInvitation.objects.filter(to_user_id=user_id).count()
            bookmark_count = BookmarkInstance.objects.filter(user_id=user_id).count()
            wall_count = WallPost.objects.filter(user_id=user_id).count()
            # The "friends online" sidebar fragment re-reads the friendship edges
            # and the invitation list (both cacheable FeatureQuery patterns).
            friendships = list(Friendship.objects.filter(from_user_id=user_id))
            invitations = list(FriendshipInvitation.objects.filter(to_user_id=user_id))
        return {
            "friends": friend_count,
            "invitations": invitation_count,
            "bookmarks": bookmark_count,
            "wall_posts": wall_count,
            "friendships": friendships,
            "invitation_list": invitations,
        }

    def _render_uncacheable_fragments(self, user_id: int) -> Dict[str, Any]:
        """Queries whose patterns CacheGenie does not cache (§3.1).

        The paper notes that workloads contain infrequent query shapes outside
        the supported patterns, and that these uncached queries are what keeps
        the database on the critical path even in the cached configurations.
        """
        return {
            # Range predicate: not an equality FeatureQuery, so never intercepted.
            "recent": list(BookmarkInstance.objects.filter(user_id=user_id, added__gt=0.0)[:3]),
            # Count keyed on a column no cached object covers (sender, not owner).
            "sent_wall_posts": WallPost.objects.filter(sender_id=user_id).count(),
        }

    def _load_account(self, user_id: int) -> Dict[str, Any]:
        with hooks.span("app:account", pause=True, user=user_id):
            fetched = self._fetch_many([
                ("user_by_id", {"id": user_id}),
                ("user_profile", {"user_id": user_id}),
            ])
            if fetched is not None:
                users, profiles = fetched
            else:
                users = list(User.objects.filter(id=user_id))
                profiles = list(Profile.objects.filter(user_id=user_id))
            return {
                "user": users[0] if users else None,
                "profile": profiles[0] if profiles else None,
            }

    def _friends_of(self, user_id: int) -> List[Dict[str, Any]]:
        """Friend rows, via the LinkQuery cached object or an ORM traversal."""
        cached = self.cached.get("friends_of_user")
        if cached is not None:
            return cached.evaluate(from_user_id=user_id)
        friend_ids = [f.to_user_id for f in Friendship.objects.filter(from_user_id=user_id)]
        if not friend_ids:
            return []
        # One row per friendship edge, as the cached join returns them.
        users = {u.pk: u for u in User.objects.filter(id__in=friend_ids)}
        return [users[pk].to_dict() for pk in friend_ids if pk in users]

    def _friend_bookmarks(self, user_id: int) -> List[Dict[str, Any]]:
        """Bookmarks saved by the user's friends (the expensive join)."""
        cached = self.cached.get("friend_bookmarks")
        if cached is not None:
            return cached.evaluate(from_user_id=user_id)
        rows: List[Dict[str, Any]] = []
        for friendship in Friendship.objects.filter(from_user_id=user_id):
            for instance in BookmarkInstance.objects.filter(user_id=friendship.to_user_id):
                rows.append(instance.to_dict())
        rows.sort(key=lambda r: r.get("added") or 0, reverse=True)
        return rows

    # -- pages --------------------------------------------------------------------

    def login(self, user_id: int) -> PageResult:
        """Login: load the account, profile, header badges, and the user's wall."""
        account = self._load_account(user_id)
        header = self._render_header(user_id)
        wall_fragment = self._fetch_many([
            ("latest_wall_posts", {"user_id": user_id}),
            ("wall_post_count", {"user_id": user_id}),
        ])
        if wall_fragment is not None:
            wall, wall_count = wall_fragment
        else:
            wall = list(WallPost.objects.filter(user_id=user_id)
                        .order_by("-date_posted")[:20])
            wall_count = WallPost.objects.filter(user_id=user_id).count()
        return PageResult(page=PAGE_LOGIN, user_id=user_id, shown={
            "account": account, "header": header, "wall": wall,
            "wall_count": wall_count,
            "uncacheable": self._render_uncacheable_fragments(user_id)})

    def logout(self, user_id: int) -> PageResult:
        """Logout: a light page — account row plus a couple of badges."""
        account = self._load_account(user_id)
        fetched = self._fetch_many([("user_bookmark_count", {"user_id": user_id})])
        if fetched is not None:
            (bookmark_count,) = fetched
        else:
            bookmark_count = BookmarkInstance.objects.filter(user_id=user_id).count()
        return PageResult(page=PAGE_LOGOUT, user_id=user_id, shown={
            "account": account, "bookmark_count": bookmark_count})

    def lookup_bookmarks(self, user_id: int) -> PageResult:
        """LookupBM: the user's saved bookmarks with per-bookmark save counts."""
        account = self._load_account(user_id)
        header = self._render_header(user_id)
        lists_fragment = self._fetch_many([
            ("bookmarks_of_user", {"user_id": user_id}),
            ("latest_bookmarks", {"user_id": user_id}),
        ])
        if lists_fragment is not None:
            instances, latest = lists_fragment
            listed = [r["bookmark_id"] for r in instances[:20]]
            # One more multi-get for the per-bookmark save-count badges (the
            # keys depend on the instance list, so they form a second batch).
            save_counts = self._fetch_many([
                ("bookmark_save_count", {"bookmark_id": bookmark_id})
                for bookmark_id in listed])
        else:
            instances = list(BookmarkInstance.objects.filter(user_id=user_id))
            listed = [instance.bookmark_id for instance in instances[:20]]
            # The Pinax template shows, for each listed bookmark, how many users
            # saved it, plus the unique bookmark's details (not a cached pattern:
            # the Bookmark-by-id rows are fetched straight from the database).
            save_counts = [BookmarkInstance.objects.filter(bookmark_id=bookmark_id).count()
                           for bookmark_id in listed]
            latest = list(BookmarkInstance.objects.filter(user_id=user_id)
                          .order_by("-added")[:10])
        return PageResult(page=PAGE_LOOKUP_BM, user_id=user_id, shown={
            "account": account, "header": header, "bookmarks": instances,
            "latest": latest, "save_counts": list(zip(listed, save_counts)),
            "bookmark_details": self._bookmark_details(listed[:1]),
            "uncacheable": self._render_uncacheable_fragments(user_id)})

    @staticmethod
    def _bookmark_details(bookmark_ids: List[int]) -> List[Bookmark]:
        """The unique bookmarks' rows, straight from the database."""
        return [bookmark for bookmark_id in bookmark_ids
                for bookmark in Bookmark.objects.filter(id=bookmark_id)]

    def lookup_friend_bookmarks(self, user_id: int) -> PageResult:
        """LookupFBM: bookmarks created by the user's friends."""
        account = self._load_account(user_id)
        header = self._render_header(user_id)
        fetched = self._fetch_many([("friend_bookmarks", {"from_user_id": user_id})])
        if fetched is not None:
            (friend_bookmarks,) = fetched
            listed = [row["bookmark_id"] for row in friend_bookmarks[:10]]
            # Save-count badges for the first page of results, batched.
            save_counts = self._fetch_many([
                ("bookmark_save_count", {"bookmark_id": bookmark_id})
                for bookmark_id in listed])
        else:
            friend_bookmarks = self._friend_bookmarks(user_id)
            listed = [row["bookmark_id"] for row in friend_bookmarks[:10]]
            # Show save counts for the first page of results, one query each.
            save_counts = [BookmarkInstance.objects.filter(bookmark_id=bookmark_id).count()
                           for bookmark_id in listed]
        return PageResult(page=PAGE_LOOKUP_FBM, user_id=user_id, shown={
            "account": account, "header": header,
            "friend_bookmarks": friend_bookmarks,
            "save_counts": list(zip(listed, save_counts)),
            "bookmark_details": self._bookmark_details(listed[:1])})

    def create_bookmark(self, user_id: int) -> PageResult:
        """CreateBM: save a (possibly new) bookmark, then re-render the list."""
        account = self._load_account(user_id)
        header = self._render_header(user_id)
        # Users mostly re-save URLs that already circulate on the site (the
        # seeded unique bookmarks), occasionally introducing new ones.
        url = f"http://example.com/page/{self.rng.randrange(0, 300)}"
        with hooks.span("app:write", pause=True, user=user_id,
                        kind="create_bookmark"):
            bookmark, created = Bookmark.objects.get_or_create(
                url=url, defaults={"description": "", "adder_id": user_id})
            instance = BookmarkInstance(
                bookmark=bookmark, user_id=user_id, description=url, note="")
            instance.save()
        hooks.pause("app:post-write")
        # Post-save renders: the redirect shows the user's bookmark list again,
        # including the fresh entry, its save count, and the latest-first view.
        after = self._fetch_many([
            ("user_bookmark_count", {"user_id": user_id}),
            ("bookmarks_of_user", {"user_id": user_id}),
            ("latest_bookmarks", {"user_id": user_id}),
            ("bookmark_save_count", {"bookmark_id": bookmark.pk}),
        ])
        if after is None:
            after = [
                BookmarkInstance.objects.filter(user_id=user_id).count(),
                list(BookmarkInstance.objects.filter(user_id=user_id)),
                list(BookmarkInstance.objects.filter(user_id=user_id)
                     .order_by("-added")[:10]),
                BookmarkInstance.objects.filter(bookmark_id=bookmark.pk).count(),
            ]
        bookmark_count, bookmarks, latest, saves = after
        return PageResult(page=PAGE_CREATE_BM, user_id=user_id, shown={
            "account": account, "header": header, "saved": bookmark,
            "created": created, "instance": instance,
            "bookmark_count": bookmark_count, "bookmarks": bookmarks,
            "latest": latest, "saves": saves,
            "header_after": self._render_header(user_id)})

    def accept_friend_request(self, user_id: int) -> PageResult:
        """AcceptFR: accept one pending invitation (or send one if none pending)."""
        account = self._load_account(user_id)
        header = self._render_header(user_id)
        fetched = self._fetch_many([("invitations_to_user", {"to_user_id": user_id})])
        if fetched is not None:
            pending = [row for row in fetched[0]
                       if row.get("status") == FriendshipInvitation.STATUS_PENDING]
            pending = [{"pk": row["id"], "from_user_id": row["from_user_id"]}
                       for row in pending]
        else:
            pending = [{"pk": inv.pk, "from_user_id": inv.from_user_id}
                       for inv in FriendshipInvitation.objects.filter(to_user_id=user_id)
                       if inv.status == FriendshipInvitation.STATUS_PENDING]
        with hooks.span("app:write", pause=True, user=user_id,
                        kind="accept_friend_request"):
            if pending:
                invitation = pending[0]
                FriendshipInvitation.objects.filter(id=invitation["pk"]).update(
                    status=FriendshipInvitation.STATUS_ACCEPTED)
                Friendship(from_user_id=user_id, to_user_id=invitation["from_user_id"]).save()
                Friendship(from_user_id=invitation["from_user_id"], to_user_id=user_id).save()
                accepted = True
                other = invitation["from_user_id"]
            else:
                # Nothing to accept: send a new invitation so the page still writes.
                other = self._pick_other_user(user_id)
                FriendshipInvitation(from_user_id=user_id, to_user_id=other,
                                     message="let's be friends",
                                     status=FriendshipInvitation.STATUS_PENDING).save()
                accepted = False
        hooks.pause("app:post-write")
        # Re-render the friends panel after the write: the updated counts, the
        # friend list, and the new friend's recent activity (their bookmarks).
        after = self._fetch_many([
            ("friend_count", {"from_user_id": user_id}),
            ("friends_of_user", {"from_user_id": user_id}),
            ("pending_invitation_count", {"to_user_id": user_id}),
            ("friend_bookmarks", {"from_user_id": user_id}),
        ])
        if after is None:
            after = [
                Friendship.objects.filter(from_user_id=user_id).count(),
                self._friends_of(user_id),
                FriendshipInvitation.objects.filter(to_user_id=user_id).count(),
                self._friend_bookmarks(user_id),
            ]
        friend_count, friends, invitation_count, friend_bookmarks = after
        return PageResult(page=PAGE_ACCEPT_FR, user_id=user_id, shown={
            "account": account, "header": header, "pending": pending,
            "accepted": accepted, "other_user": other,
            "friend_count": friend_count, "friends": friends,
            "invitation_count": invitation_count,
            "friend_bookmarks": friend_bookmarks,
            "header_after": self._render_header(user_id)})

    def _pick_other_user(self, user_id: int) -> int:
        total_users = User.objects.count()
        if total_users <= 1:
            return user_id
        other = self.rng.randrange(1, total_users + 1)
        if other == user_id:
            other = (other % total_users) + 1
        return other

    # -- dispatch -------------------------------------------------------------------

    def render(self, page: str, user_id: int) -> PageResult:
        """Render a page by name (used by the workload driver)."""
        handlers = {
            PAGE_LOGIN: self.login,
            PAGE_LOGOUT: self.logout,
            PAGE_LOOKUP_BM: self.lookup_bookmarks,
            PAGE_LOOKUP_FBM: self.lookup_friend_bookmarks,
            PAGE_CREATE_BM: self.create_bookmark,
            PAGE_ACCEPT_FR: self.accept_friend_request,
        }
        if page not in handlers:
            raise ValueError(f"unknown page type {page!r}")
        with hooks.span(f"page:{page}", pause=True, user=user_id):
            return handlers[page](user_id)
