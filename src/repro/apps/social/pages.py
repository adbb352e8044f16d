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

With ``batch_reads=True`` (the default; ``--batch-ops off`` disables it) the
hot cached fragments of each page — header badges, account rows, the wall
Top-K, the bookmark lists — are fetched through
:func:`repro.core.evaluate_many` instead of one cache round trip per query:
all of a fragment group's keys travel in a single multi-get per cache
server.  Query shapes that no cached object covers keep going to the
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
    """Outcome of rendering one page."""

    page: str
    user_id: int
    items: int = 0
    wrote: bool = False
    detail: Dict[str, Any] = field(default_factory=dict)


class SocialApplication:
    """Renders the social site's pages against the ORM (and cached objects).

    A page and each of its fragments is a boundary on
    :mod:`repro.obs.hooks`' chain: a pause — where the concurrent replay
    engine may suspend one simulated worker and advance another — then a
    span.
    """

    def __init__(self, cached_objects: Optional[Dict[str, Any]] = None,
                 rng: Optional[random.Random] = None,
                 batch_reads: bool = True) -> None:
        self.cached = cached_objects or {}
        self.rng = rng or random.Random(0)
        self.batch_reads = batch_reads

    # -- batched fragment fetching ----------------------------------------------

    def _fetch_many(self, requests: Sequence[Tuple[str, Dict[str, Any]]],
                    ) -> Optional[List[Any]]:
        """Fetch several cached fragments with one multi-get round trip.

        ``requests`` names registered cached objects and their parameters.
        Returns None (caller falls back to per-query rendering) unless
        batching is enabled and every named object is registered.
        """
        if not self.batch_reads or not self.cached:
            return None
        pairs = []
        for name, params in requests:
            cached_object = self.cached.get(name)
            if cached_object is None:
                return None
            pairs.append((cached_object, params))
        return evaluate_many(pairs)

    # -- shared fragments -------------------------------------------------------

    def _render_header(self, user_id: int) -> Dict[str, int]:
        """The header shown on every page: badges for friends/invites/bookmarks.

        Pinax templates recompute these fragments in several template blocks,
        which is why the paper observes ~80 queries per page load; the header
        alone accounts for a dozen (all of them cacheable patterns).  With
        batching on, the whole dozen rides one multi-get per cache server.
        """
        with hooks.span("app:header", pause=True, user=user_id):
            return self._render_header_body(user_id)

    def _render_header_body(self, user_id: int) -> Dict[str, int]:
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
             bookmark_count, wall_count, _friendships, _invitations) = fetched
            return {
                "friends": friend_count,
                "invitations": invitation_count,
                "bookmarks": bookmark_count,
                "wall_posts": wall_count,
            }
        list(User.objects.filter(id=user_id))
        list(Profile.objects.filter(user_id=user_id))
        friend_count = Friendship.objects.filter(from_user_id=user_id).count()
        invitation_count = FriendshipInvitation.objects.filter(to_user_id=user_id).count()
        bookmark_count = BookmarkInstance.objects.filter(user_id=user_id).count()
        wall_count = WallPost.objects.filter(user_id=user_id).count()
        # The "friends online" sidebar fragment re-reads the friendship edges
        # and the invitation list (both cacheable FeatureQuery patterns).
        list(Friendship.objects.filter(from_user_id=user_id))
        list(FriendshipInvitation.objects.filter(to_user_id=user_id))
        return {
            "friends": friend_count,
            "invitations": invitation_count,
            "bookmarks": bookmark_count,
            "wall_posts": wall_count,
        }

    def _render_uncacheable_fragments(self, user_id: int) -> None:
        """Queries whose patterns CacheGenie does not cache (§3.1).

        The paper notes that workloads contain infrequent query shapes outside
        the supported patterns, and that these uncached queries are what keeps
        the database on the critical path even in the cached configurations.
        """
        # Range predicate: not an equality FeatureQuery, so never intercepted.
        list(BookmarkInstance.objects.filter(user_id=user_id, added__gt=0.0)[:3])
        # Count keyed on a column no cached object covers (sender, not owner).
        WallPost.objects.filter(sender_id=user_id).count()

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
        return [u.to_dict() for u in User.objects.filter(id__in=friend_ids)]

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
            wall = wall_fragment[0]
        else:
            wall = list(WallPost.objects.filter(user_id=user_id)
                        .order_by("-date_posted")[:20])
            WallPost.objects.filter(user_id=user_id).count()
        self._render_uncacheable_fragments(user_id)
        return PageResult(page=PAGE_LOGIN, user_id=user_id,
                          items=len(wall), detail={"header": header,
                                                   "has_profile": account["profile"] is not None})

    def logout(self, user_id: int) -> PageResult:
        """Logout: a light page — account row plus a couple of badges."""
        self._load_account(user_id)
        if self._fetch_many([("user_bookmark_count", {"user_id": user_id})]) is None:
            BookmarkInstance.objects.filter(user_id=user_id).count()
        return PageResult(page=PAGE_LOGOUT, user_id=user_id)

    def lookup_bookmarks(self, user_id: int) -> PageResult:
        """LookupBM: the user's saved bookmarks with per-bookmark save counts."""
        self._load_account(user_id)
        header = self._render_header(user_id)
        lists_fragment = self._fetch_many([
            ("bookmarks_of_user", {"user_id": user_id}),
            ("latest_bookmarks", {"user_id": user_id}),
        ])
        if lists_fragment is not None:
            instance_rows, latest = lists_fragment
            # One more multi-get for the per-bookmark save-count badges (the
            # keys depend on the instance list, so they form a second batch).
            self._fetch_many([("bookmark_save_count", {"bookmark_id": r["bookmark_id"]})
                              for r in instance_rows[:20]])
            bookmark_ids = [r["bookmark_id"] for r in instance_rows[:1]]
        else:
            instances = list(BookmarkInstance.objects.filter(user_id=user_id))
            instance_rows = instances
            # The Pinax template shows, for each listed bookmark, how many users
            # saved it, plus the unique bookmark's details (not a cached pattern:
            # the Bookmark-by-id rows are fetched straight from the database).
            for instance in instances[:20]:
                BookmarkInstance.objects.filter(bookmark_id=instance.bookmark_id).count()
            bookmark_ids = [instance.bookmark_id for instance in instances[:1]]
            latest = list(BookmarkInstance.objects.filter(user_id=user_id)
                          .order_by("-added")[:10])
        for bookmark_id in bookmark_ids:
            list(Bookmark.objects.filter(id=bookmark_id))
        self._render_uncacheable_fragments(user_id)
        return PageResult(page=PAGE_LOOKUP_BM, user_id=user_id,
                          items=len(instance_rows), detail={"header": header,
                                                            "latest": len(latest)})

    def lookup_friend_bookmarks(self, user_id: int) -> PageResult:
        """LookupFBM: bookmarks created by the user's friends."""
        self._load_account(user_id)
        header = self._render_header(user_id)
        fetched = self._fetch_many([("friend_bookmarks", {"from_user_id": user_id})])
        if fetched is not None:
            friend_bookmarks = fetched[0]
            # Save-count badges for the first page of results, batched.
            self._fetch_many([("bookmark_save_count", {"bookmark_id": row["bookmark_id"]})
                              for row in friend_bookmarks[:10]])
        else:
            friend_bookmarks = self._friend_bookmarks(user_id)
            # Show save counts for the first page of results, one query each.
            for row in friend_bookmarks[:10]:
                BookmarkInstance.objects.filter(bookmark_id=row["bookmark_id"]).count()
        for row in friend_bookmarks[:1]:
            list(Bookmark.objects.filter(id=row["bookmark_id"]))
        return PageResult(page=PAGE_LOOKUP_FBM, user_id=user_id,
                          items=len(friend_bookmarks), detail={"header": header})

    def create_bookmark(self, user_id: int, url: Optional[str] = None,
                        description: str = "") -> PageResult:
        """CreateBM: save a (possibly new) bookmark, then re-render the list."""
        self._load_account(user_id)
        header = self._render_header(user_id)
        if url is None:
            # Users mostly re-save URLs that already circulate on the site (the
            # seeded unique bookmarks), occasionally introducing new ones.
            url = f"http://example.com/page/{self.rng.randrange(0, 300)}"
        with hooks.span("app:write", pause=True, user=user_id,
                        kind="create_bookmark"):
            bookmark, created = Bookmark.objects.get_or_create(
                url=url, defaults={"description": description, "adder_id": user_id})
            instance = BookmarkInstance(
                bookmark=bookmark, user_id=user_id,
                description=description or url, note="")
            instance.save()
        hooks.pause("app:post-write")
        # Post-save renders: the redirect shows the user's bookmark list again,
        # including the fresh entry, its save count, and the latest-first view.
        if self._fetch_many([
            ("user_bookmark_count", {"user_id": user_id}),
            ("bookmarks_of_user", {"user_id": user_id}),
            ("latest_bookmarks", {"user_id": user_id}),
            ("bookmark_save_count", {"bookmark_id": bookmark.pk}),
        ]) is None:
            BookmarkInstance.objects.filter(user_id=user_id).count()
            list(BookmarkInstance.objects.filter(user_id=user_id))
            list(BookmarkInstance.objects.filter(user_id=user_id).order_by("-added")[:10])
            BookmarkInstance.objects.filter(bookmark_id=bookmark.pk).count()
        self._render_header(user_id)
        return PageResult(page=PAGE_CREATE_BM, user_id=user_id, wrote=True,
                          items=1, detail={"header": header,
                                           "new_bookmark": created,
                                           "bookmark_id": bookmark.pk})

    def accept_friend_request(self, user_id: int) -> PageResult:
        """AcceptFR: accept one pending invitation (or send one if none pending)."""
        self._load_account(user_id)
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
        if self._fetch_many([
            ("friend_count", {"from_user_id": user_id}),
            ("friends_of_user", {"from_user_id": user_id}),
            ("pending_invitation_count", {"to_user_id": user_id}),
            ("friend_bookmarks", {"from_user_id": user_id}),
        ]) is None:
            Friendship.objects.filter(from_user_id=user_id).count()
            self._friends_of(user_id)
            FriendshipInvitation.objects.filter(to_user_id=user_id).count()
            self._friend_bookmarks(user_id)
        self._render_header(user_id)
        return PageResult(page=PAGE_ACCEPT_FR, user_id=user_id, wrote=True,
                          detail={"header": header, "accepted": accepted,
                                  "other_user": other})

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
