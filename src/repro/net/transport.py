"""Point-to-point messaging over the simulated fabric.

The API shape deliberately mirrors mpi4py's send/recv with tags: a
process calls ``yield transport.send(...)`` to block until the message
is on the destination's mailbox, and ``yield transport.recv(...)`` to
block until a matching message arrives.  An RPC convenience couples a
request with a tagged reply, which is how the active-storage client
talks to the AS helper processes on the storage servers.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Optional

from ..errors import LinkDownError, NodeDownError
from ..sim import Environment, FilterStore
from ..sim.monitor import MonitorHub
from ..sim.resources import StoreGet
from .fabric import Fabric
from .message import TAG_DATA, TAG_RPC, TAG_RPC_REPLY, Message


class MailboxGet(StoreGet):
    """A structured mailbox receive.

    Carries the match criteria (``tag``, ``reply_to``, residual
    ``match`` callable) as plain attributes so :meth:`Mailbox._match`
    can test candidate messages inline instead of paying a Python call
    per scanned (waiter, item) pair.
    """

    __slots__ = ("tag", "reply_to", "match")

    def __init__(self, store: "Mailbox", tag, reply_to, match):
        self.tag = tag
        self.reply_to = reply_to
        self.match = match
        super().__init__(store)


class Mailbox(FilterStore):
    """A node's message queue with attribute-indexed matching.

    Semantics are exactly :class:`FilterStore` with the predicate
    ``(tag is None or m.tag == tag) and (reply_to is None or
    m.reply_to == reply_to) and (match is None or match(m))`` — waiters
    are scanned in FIFO order and each takes the first matching item —
    but the common tag-only and RPC-reply waits never call a predicate.
    """

    def get(self, tag=None, reply_to=None, match=None) -> MailboxGet:  # type: ignore[override]
        return MailboxGet(self, tag, reply_to, match)

    def _match(self, waiters):
        items = self.items
        for wi, get in enumerate(waiters):
            tag = get.tag
            rid = get.reply_to
            fn = get.match
            if fn is None:
                if rid is None:
                    if tag is None:
                        waiters.pop(wi)
                        item = items.pop(0)
                        get.succeed(item)
                        return get
                    for ii, item in enumerate(items):
                        if item.tag == tag:
                            waiters.pop(wi)
                            items.pop(ii)
                            get.succeed(item)
                            return get
                else:
                    # RPC reply wait: reply_to is the discriminating key.
                    for ii, item in enumerate(items):
                        if item.reply_to == rid and (tag is None or item.tag == tag):
                            waiters.pop(wi)
                            items.pop(ii)
                            get.succeed(item)
                            return get
            else:
                for ii, item in enumerate(items):
                    if (
                        (tag is None or item.tag == tag)
                        and (rid is None or item.reply_to == rid)
                        and fn(item)
                    ):
                        waiters.pop(wi)
                        items.pop(ii)
                        get.succeed(item)
                        return get
        return None


def _receive_loop(owner_ref, tag: str, label: str):
    """The request loop of :meth:`Transport.serve`.

    Suspended for its whole life, its frame must own neither its server
    nor the request it handed on last (a write request pins the sender's
    whole output run): both are only ever arguments of the two helpers,
    the server dereferenced after the wait, not before it.
    """
    while True:
        _start_handler((yield _next_request(owner_ref(), tag)), owner_ref(), label)


def _next_request(owner, tag: str):
    return owner.transport.recv(owner.name, tag=tag)


def _start_handler(msg, owner, label: str) -> None:
    owner.env.process(owner._handle(msg), name=f"{label}-handle:{owner.name}")


class Transport:
    """Delivers :class:`Message` objects between nodes with timing."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        monitors: MonitorHub,
        rpc_overhead: float = 0.0,
    ):
        self.env = env
        self.fabric = fabric
        self.monitors = monitors
        self.rpc_overhead = float(rpc_overhead)
        self._mailboxes: dict[str, Mailbox] = {}
        # Lazily-bound counter handles (first-touch creation order is
        # preserved; see NIC.account_tx for the pattern's rationale).
        self._loopback_counter = None
        self._flow_counters: dict = {}
        self._tag_counters: dict = {}

    def mailbox(self, node: str) -> Mailbox:
        box = self._mailboxes.get(node)
        if box is None:
            box = Mailbox(self.env)
            self._mailboxes[node] = box
        return box

    # -- sending ---------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        size: float,
        payload: Any = None,
        tag: str = TAG_DATA,
        reply_to: Optional[int] = None,
    ):
        """Start a transfer; returns a Process event that completes (with
        the delivered :class:`Message`) once the bytes are on ``dst``'s
        mailbox.  ``yield`` it to block, or fire-and-forget it."""
        msg = Message(
            src=src, dst=dst, size=float(size), tag=tag, payload=payload, reply_to=reply_to
        )
        return self.env.process(self._send_proc(msg))

    def send_gen(
        self,
        src: str,
        dst: str,
        size: float,
        payload: Any = None,
        tag: str = TAG_DATA,
        reply_to: Optional[int] = None,
    ):
        """Generator form of :meth:`send` for ``yield from`` composition.

        Runs the transfer inside the *calling* process instead of
        spawning a child process — the hot-path form when the caller
        blocks on the send anyway (no fire-and-forget, no racing)."""
        msg = Message(
            src=src, dst=dst, size=float(size), tag=tag, payload=payload, reply_to=reply_to
        )
        return self._send_proc(msg)

    def _send_proc(self, msg: Message):
        msg.sent_at = self.env.now
        if msg.src == msg.dst:
            # Loopback: no NIC traversal, no wire bytes.
            c = self._loopback_counter
            if c is None:
                c = self._loopback_counter = self.monitors.counter("net.loopback_bytes")
            c.add(msg.size)
            yield self.mailbox(msg.dst).put(msg)
            return msg

        src_nic = self.fabric.nic_of(msg.src)
        dst_nic = self.fabric.nic_of(msg.dst)
        if not dst_nic.is_up:
            raise NodeDownError(f"destination node {msg.dst!r} is down")
        if not src_nic.is_up:
            raise NodeDownError(f"source node {msg.src!r} is down")
        if not self.fabric.link_up(msg.src, msg.dst):
            raise LinkDownError(f"link {msg.src!r}<->{msg.dst!r} is cut")

        yield self.env.timeout(src_nic.latency)
        if not dst_nic.is_up:  # went down while the head was in flight
            raise NodeDownError(f"destination node {msg.dst!r} is down")
        yield self.fabric.transfer(msg.src, msg.dst, msg.size)

        src_nic.account_tx(msg.size)
        dst_nic.account_rx(msg.size)
        monitors = self.monitors
        flow_key = (msg.src, msg.dst)
        c = self._flow_counters.get(flow_key)
        if c is None:
            c = self._flow_counters[flow_key] = monitors.counter(
                f"net.flow.{msg.src}->{msg.dst}"
            )
        c.add(msg.size)
        c = self._tag_counters.get(msg.tag)
        if c is None:
            c = self._tag_counters[msg.tag] = monitors.counter(f"net.tag.{msg.tag}")
        c.add(msg.size)
        yield self.mailbox(msg.dst).put(msg)
        return msg

    # -- receiving ---------------------------------------------------------------
    def recv(
        self,
        node: str,
        tag: Optional[str] = None,
        match: Optional[Callable[[Message], bool]] = None,
        reply_to: Optional[int] = None,
    ):
        """An event yielding the next mailbox message that matches
        ``tag``, ``reply_to`` and ``match`` (each optional)."""
        return self.mailbox(node).get(tag, reply_to, match)

    def serve(self, owner, tag: str, label: str):
        """Start ``owner``'s request loop: every ``tag`` message for
        node ``owner.name`` becomes an ``owner._handle(msg)`` process.

        The loop holds ``owner`` weakly: it is suspended for its whole
        life, and owning its server would pin it, strip store and all,
        through ``Transport -> Mailbox -> MailboxGet -> Process ->
        generator -> server -> transport``.  When ``owner`` is freed the
        pending receive is withdrawn and the loop closed, so it cannot
        swallow a message meant for a successor on the node.
        """
        proc = self.env.process(
            _receive_loop(weakref.ref(owner), tag, label),
            name=f"{label}-server:{owner.name}",
        )
        weakref.finalize(owner, self._end_service, owner.name, proc).atexit = False
        return proc

    def _end_service(self, node: str, proc) -> None:
        waiters = self.mailbox(node)._get_waiters
        if proc.target in waiters:
            waiters.remove(proc.target)
        proc.close()

    # -- RPC ------------------------------------------------------------------------
    def call(
        self,
        src: str,
        dst: str,
        payload: Any,
        request_size: float,
        tag: str = TAG_RPC,
    ):
        """Request/response round trip; returns a Process event whose
        value is the reply :class:`Message`."""
        return self.env.process(self._call_proc(src, dst, payload, request_size, tag))

    def call_gen(self, src: str, dst: str, payload: Any, request_size: float, tag: str = TAG_RPC):
        """Generator form of :meth:`call` for ``yield from`` composition
        (see :meth:`send_gen`)."""
        return self._call_proc(src, dst, payload, request_size, tag)

    def _call_proc(self, src: str, dst: str, payload: Any, request_size: float, tag: str):
        sent = yield from self.send_gen(src, dst, request_size, payload, tag=tag)
        reply = yield self.recv(src, tag=TAG_RPC_REPLY, reply_to=sent.msg_id)
        return reply

    def reply(self, request: Message, payload: Any, size: float):
        """Send an RPC reply correlated to ``request``; adds the
        configured per-RPC software overhead before the wire transfer."""
        return self.env.process(self._reply_proc(request, payload, size))

    def reply_gen(self, request: Message, payload: Any, size: float):
        """Generator form of :meth:`reply` for ``yield from`` composition
        (see :meth:`send_gen`)."""
        return self._reply_proc(request, payload, size)

    def _reply_proc(self, request: Message, payload: Any, size: float):
        if self.rpc_overhead:
            yield self.env.timeout(self.rpc_overhead)
        msg = yield from self.send_gen(
            request.dst,
            request.src,
            size,
            payload,
            tag=TAG_RPC_REPLY,
            reply_to=request.msg_id,
        )
        return msg
