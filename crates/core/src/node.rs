//! The two server compositions, written once for the socket runtime and
//! the simulator (DESIGN.md §1), generic over their endpoint handle `E`. A
//! node hears messages, closes and its deadline, decides everything
//! inside, and leaves what to send in its outbox.
//!
//! * [`DispatcherNode`]: a [`Dispatcher`] behind a [`Switchboard`].
//! * [`ForwarderNode`]: a [`Forwarder`], one [`Client`] per downstream
//!   slot on the link [`ForwarderNode::admit`] names, and a
//!   [`Switchboard`] upstream. A link is up once its client has an
//!   instance; the machine routes only to an up slot. Any other endpoint
//!   is a client.

use crate::client::{Client, ClientAction, ClientEvent};
use crate::dispatcher::{Dispatcher, DispatcherAction, DispatcherEvent, TaskRecord};
use crate::forwarder::{DispatcherIndex, Forwarder, ForwarderAction, ForwarderEvent};
use crate::{mapping, DispatcherConfig, Micros, Switchboard};
use falkon_obs::{NoopProbe, Probe};
use falkon_proto::bundle::BundleConfig;
use falkon_proto::message::Message;

/// A dispatcher server (module docs).
pub struct DispatcherNode<E, P: Probe = NoopProbe> {
    machine: Dispatcher<P>,
    routes: Switchboard<E>,
    actions: Vec<DispatcherAction>,
    /// What to send, each message with its endpoint, in order.
    pub outbox: Vec<(E, Message)>,
    /// The completed tasks' records, in completion order.
    pub records: Vec<TaskRecord>,
}

impl<E: Copy + PartialEq, P: Probe> DispatcherNode<E, P> {
    /// A node whose machine reports lifecycle events to `probe`.
    pub fn new(config: DispatcherConfig, probe: P) -> Self {
        DispatcherNode {
            machine: Dispatcher::with_probe(config, probe),
            routes: Switchboard::default(),
            actions: Vec::new(),
            outbox: Vec::new(),
            records: Vec::new(),
        }
    }

    /// `msg` arrived from endpoint `from`.
    pub fn heard(&mut self, now: Micros, from: E, msg: Message) {
        self.routes.heard(from, &msg, &mut self.outbox);
        if let Some(ev) = mapping::message_to_dispatcher_event(msg) {
            self.step(now, ev, Some(from));
        }
    }

    /// Endpoint `at` closed.
    pub fn closed(&mut self, now: Micros, at: E) {
        for executor in self.routes.close(at) {
            self.step(now, DispatcherEvent::ExecutorLost { executor }, None);
        }
    }

    /// When the node wants [`DispatcherNode::on_deadline`].
    pub fn next_deadline(&mut self) -> Option<Micros> {
        self.machine.next_deadline()
    }

    /// The time [`DispatcherNode::next_deadline`] named has come.
    pub fn on_deadline(&mut self, now: Micros) {
        self.step(now, DispatcherEvent::CheckDeadlines, None);
    }

    /// The dispatcher machine.
    pub fn machine(&self) -> &Dispatcher<P> {
        &self.machine
    }

    /// Feed the machine `ev` and address what it says; `cause` is the
    /// endpoint whose message it answers.
    fn step(&mut self, now: Micros, ev: DispatcherEvent, cause: Option<E>) {
        self.machine.on_event(now, ev, &mut self.actions);
        for act in self.actions.drain(..) {
            let (to, msg) = match act {
                DispatcherAction::ToExecutor { executor, msg } => {
                    (self.routes.to_executor(executor), msg)
                }
                DispatcherAction::ToClient { instance, msg } => {
                    (self.routes.to_instance(instance, &msg, cause), msg)
                }
                DispatcherAction::ToProvisioner { status } => (cause, Message::Status { status }),
                DispatcherAction::TaskDone { record, .. } => {
                    self.records.push(record);
                    continue;
                }
                // Counted by the machine's stats.
                DispatcherAction::TaskFailed { .. } => continue,
            };
            if let Some(to) = to {
                self.outbox.push((to, msg));
            }
        }
    }
}

/// One downstream slot's link and the client session on it.
struct Link<E> {
    at: E,
    client: Client,
}

/// A forwarder server (module docs).
pub struct ForwarderNode<E, P: Probe = NoopProbe> {
    machine: Forwarder<P>,
    actions: Vec<ForwarderAction>,
    links: Vec<Option<Link<E>>>,
    /// What a link's client sends in one step (reused).
    sends: Vec<ClientAction>,
    routes: Switchboard<E>,
    /// What to send, each message with its endpoint, in order.
    pub outbox: Vec<(E, Message)>,
    /// Link changes, in order: `(d, true)` when slot `d`'s link came up,
    /// `(d, false)` when one went before it did.
    pub link_news: Vec<(DispatcherIndex, bool)>,
}

impl<E: Copy + PartialEq, P: Probe> ForwarderNode<E, P> {
    /// A node over `dispatchers` slots, none linked yet, whose machine
    /// reports lifecycle events to `probe`.
    pub fn new(dispatchers: usize, probe: P) -> Self {
        ForwarderNode {
            machine: Forwarder::with_probe(dispatchers, probe),
            actions: Vec::new(),
            links: (0..dispatchers).map(|_| None).collect(),
            sends: Vec::new(),
            routes: Switchboard::default(),
            outbox: Vec::new(),
            link_news: Vec::new(),
        }
    }

    /// Endpoint `at` is slot `d`'s link now; a link still in place (its
    /// dispatcher closing it from the far end) is lost first.
    pub fn admit(&mut self, now: Micros, d: DispatcherIndex, at: E) {
        if self.links[d].is_some() {
            self.lose(now, d);
        }
        // No bundle limit: a routed bundle stays one `Submit`.
        let client = Client::new(BundleConfig::of(usize::MAX));
        self.links[d] = Some(Link { at, client });
        self.step(now, d, |c, out| c.on_event(now, ClientEvent::Start, out));
    }

    /// `msg` arrived from endpoint `from`: a slot's link, or a client.
    pub fn heard(&mut self, now: Micros, from: E, msg: Message) {
        if let Some(d) = self.slot_of(from) {
            if let Some(ev) = mapping::message_to_client_event(msg) {
                self.step(now, d, |c, out| c.on_event(now, ev, out));
            }
            return self.deliver(now, None);
        }
        self.routes.heard(from, &msg, &mut self.outbox);
        let ev = match msg {
            Message::CreateInstance => ForwarderEvent::CreateInstance,
            Message::Submit { instance, tasks } => ForwarderEvent::ClientSubmit { instance, tasks },
            // Bindings are the switchboard's; anything else is a peer in
            // the wrong role, or a replaced link's straggler.
            _ => return,
        };
        self.machine.on_event(now, ev, &mut self.actions);
        self.deliver(now, Some(from));
    }

    /// Endpoint `at` closed; a client's results wait in the switchboard.
    pub fn closed(&mut self, now: Micros, at: E) {
        match self.slot_of(at) {
            Some(d) => self.lose(now, d),
            None => _ = self.routes.close(at),
        }
    }

    /// The forwarder machine.
    pub fn machine(&self) -> &Forwarder<P> {
        &self.machine
    }

    fn slot_of(&self, at: E) -> Option<DispatcherIndex> {
        let link = |l: &Option<Link<E>>| l.as_ref().is_some_and(|l| l.at == at);
        self.links.iter().position(link)
    }

    /// Slot `d`'s link is gone: the machine re-routes what was there.
    fn lose(&mut self, now: Micros, d: DispatcherIndex) {
        let never_up = self.links[d]
            .take()
            .is_some_and(|l| l.client.instance().is_none());
        if never_up {
            self.link_news.push((d, false));
        }
        let lost = ForwarderEvent::DispatcherLost { dispatcher: d };
        self.machine.on_event(now, lost, &mut self.actions);
        self.deliver(now, None);
    }

    /// Run slot `d`'s client on one step and send what it sends; the step
    /// that creates its instance brings the link up.
    fn step(
        &mut self,
        now: Micros,
        d: DispatcherIndex,
        f: impl FnOnce(&mut Client, &mut Vec<ClientAction>),
    ) {
        let link = self.links[d].as_mut().expect("a stepped slot has a link");
        let was_up = link.client.instance().is_some();
        f(&mut link.client, &mut self.sends);
        for act in self.sends.drain(..) {
            if let ClientAction::Send(msg) = act {
                self.outbox.push((link.at, msg));
            }
        }
        let mut feed = |ev| self.machine.on_event(now, ev, &mut self.actions);
        if !was_up && link.client.instance().is_some() {
            feed(ForwarderEvent::DispatcherReadmitted { dispatcher: d });
            self.link_news.push((d, true));
        }
        let results = link.client.take_results();
        if !results.is_empty() {
            feed(ForwarderEvent::DispatcherResults {
                dispatcher: d,
                results,
            });
        }
    }

    /// Address the machine's pending actions; `cause` is the client
    /// endpoint whose message the machine answered.
    fn deliver(&mut self, now: Micros, cause: Option<E>) {
        let mut actions = std::mem::take(&mut self.actions);
        for act in actions.drain(..) {
            let (instance, msg) = match act {
                // The machine routes only to an up slot: one `Submit`.
                ForwarderAction::SubmitTo { dispatcher, tasks } => {
                    self.step(now, dispatcher, |c, out| c.enqueue(now, tasks, out));
                    continue;
                }
                ForwarderAction::InstanceCreated { instance } => {
                    (instance, Message::InstanceCreated { instance })
                }
                ForwarderAction::DeliverResults { instance, results } => {
                    (instance, Message::Results { results })
                }
            };
            if let Some(to) = self.routes.to_instance(instance, &msg, cause) {
                self.outbox.push((to, msg));
            }
        }
        debug_assert!(self.actions.is_empty(), "a submit feeds nothing back");
        self.actions = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplayPolicy;
    use falkon_obs::ObsEventKind;
    use falkon_proto::message::{ExecutorId, InstanceId};
    use falkon_proto::task::{TaskResult, TaskSpec};

    fn register(e: u64) -> Message {
        Message::Register {
            executor: ExecutorId(e),
            host: String::new(),
        }
    }

    fn sent<E: Copy>(outbox: &mut Vec<(E, Message)>) -> Vec<(E, &'static str)> {
        outbox.drain(..).map(|(to, m)| (to, m.kind())).collect()
    }

    /// How many results the outbox carries.
    fn results_in<E>(outbox: &mut Vec<(E, Message)>) -> usize {
        let count = |(_, m)| match m {
            Message::Results { results } => results.len(),
            _ => 0,
        };
        outbox.drain(..).map(count).sum()
    }

    /// Executor 1 on endpoint 1, the client on endpoint 2, two tasks run
    /// by the executor; one completes, and its endpoint closes with the
    /// other in flight, which has no retry left.
    #[test]
    fn a_dispatcher_node_answers_where_the_switchboard_binds() {
        let config = DispatcherConfig {
            replay: ReplayPolicy {
                max_retries: 0,
                ..ReplayPolicy::default()
            },
            work_bundle: 2,
            ..DispatcherConfig::default()
        };
        let mut node: DispatcherNode<u8> = DispatcherNode::new(config, NoopProbe);
        node.heard(0, 1, register(1));
        node.heard(0, 2, Message::CreateInstance);
        node.heard(0, 2, Message::StatusPoll);
        let instance = InstanceId(1);
        let tasks = vec![TaskSpec::sleep(7, 0), TaskSpec::sleep(8, 0)];
        node.heard(1, 2, Message::Submit { instance, tasks });
        let want = [
            (1, "RegisterAck"),
            (2, "InstanceCreated"),
            (2, "Status"),
            (2, "SubmitAck"),
            (1, "Notify"),
        ];
        assert_eq!(sent(&mut node.outbox), want);
        let executor = ExecutorId(1);
        let key = falkon_proto::message::NotifyKey(1);
        node.heard(2, 1, Message::GetWork { executor, key });
        assert_eq!(sent(&mut node.outbox), [(1, "Work")]);
        let results = vec![TaskResult::success(falkon_proto::task::TaskId(7))];
        node.heard(3, 1, Message::Result { executor, results });
        assert_eq!(node.records.len(), 1);
        assert_eq!(sent(&mut node.outbox), [(2, "Results"), (1, "ResultAck")]);
        node.closed(4, 1);
        assert_eq!(node.machine().stats().failed, 1);
        assert_eq!(sent(&mut node.outbox), [(2, "Results")]);
        // Kept until acknowledged: an endpoint the instance moves to gets
        // them again.
        let fetch = Message::GetResults { instance };
        node.heard(5, 3, fetch.clone());
        assert_eq!(results_in(&mut node.outbox), 2);
        node.heard(6, 3, Message::ResultsAck { instance, count: 2 });
        node.heard(7, 4, fetch);
        assert_eq!(results_in(&mut node.outbox), 0);
    }

    /// The executors a `StatusPoll` from endpoint 2 reports registered.
    fn registered(node: &mut DispatcherNode<u8>) -> u64 {
        node.heard(0, 2, Message::StatusPoll);
        match node.outbox.pop() {
            Some((2, Message::Status { status })) => status.registered_executors,
            other => panic!("a StatusPoll answered with {other:?}"),
        }
    }

    /// A `Register` at or above the dense tables' cap binds nothing and registers
    /// nothing, and the executor that registers next is served.
    #[test]
    fn a_dispatcher_node_refuses_an_executor_id_at_the_dense_cap() {
        let mut node: DispatcherNode<u8> =
            DispatcherNode::new(DispatcherConfig::default(), NoopProbe);
        node.heard(0, 1, register(u64::MAX));
        node.heard(0, 1, register(crate::table::DENSE_ID_CAP));
        assert_eq!(registered(&mut node), 0);
        assert_eq!(sent(&mut node.outbox), [], "no RegisterAck");
        node.heard(1, 3, register(2));
        node.heard(1, 2, Message::CreateInstance);
        let (instance, tasks) = (InstanceId(1), vec![TaskSpec::sleep(7, 0)]);
        node.heard(1, 2, Message::Submit { instance, tasks });
        let want = [
            (3, "RegisterAck"),
            (2, "InstanceCreated"),
            (2, "SubmitAck"),
            (3, "Notify"),
        ];
        assert_eq!(sent(&mut node.outbox), want);
        assert_eq!(registered(&mut node), 1);
        let (executor, key) = (ExecutorId(2), falkon_proto::message::NotifyKey(1));
        node.heard(2, 3, Message::GetWork { executor, key });
        assert_eq!(sent(&mut node.outbox), [(3, "Work")]);
    }

    /// Two slots on endpoints 10 and 11, a client on endpoint 1.
    #[test]
    fn a_forwarder_node_routes_only_to_a_link_that_is_up() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(2, NoopProbe);
        node.admit(0, 0, 10);
        node.admit(0, 1, 11);
        let created = |i| Message::InstanceCreated {
            instance: InstanceId(i),
        };
        node.heard(0, 10, created(1));
        assert_eq!(node.link_news.drain(..).collect::<Vec<_>>(), [(0, true)]);
        node.closed(0, 11);
        assert_eq!(node.link_news.drain(..).collect::<Vec<_>>(), [(1, false)]);
        node.heard(1, 1, Message::CreateInstance);
        let instance = InstanceId(1);
        let tasks = vec![TaskSpec::sleep(7, 0)];
        node.heard(1, 1, Message::Submit { instance, tasks });
        let want = [
            (10, "CreateInstance"),
            (11, "CreateInstance"),
            (1, "InstanceCreated"),
            (10, "Submit"),
        ];
        assert_eq!(sent(&mut node.outbox), want);
        let results = vec![TaskResult::success(falkon_proto::task::TaskId(7))];
        node.heard(2, 10, Message::Results { results });
        assert_eq!(sent(&mut node.outbox), [(10, "ResultsAck"), (1, "Results")]);
        assert_eq!(
            node.machine().counters().value(ObsEventKind::ResultsRouted),
            1
        );
    }

    /// The node keeps its action buffer between messages.
    #[test]
    fn a_forwarder_node_reuses_its_action_buffer() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(1, NoopProbe);
        node.heard(0, 1, Message::CreateInstance);
        assert!(node.actions.is_empty() && node.actions.capacity() > 0);
    }

    /// A client's empty `Submit` reaches no link.
    #[test]
    fn a_forwarder_node_ignores_an_empty_submit() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(1, NoopProbe);
        node.admit(0, 0, 10);
        let instance = InstanceId(1);
        node.heard(0, 10, Message::InstanceCreated { instance });
        node.heard(1, 1, Message::CreateInstance);
        let tasks = Vec::new();
        node.heard(1, 1, Message::Submit { instance, tasks });
        let want = [(10, "CreateInstance"), (1, "InstanceCreated")];
        assert_eq!(sent(&mut node.outbox), want);
        assert_eq!(node.machine().in_flight(), 0);
    }

    /// A slot admitted on a new endpoint while its old link is still in
    /// place loses the old link first: what was there goes to the new one
    /// once it is up.
    #[test]
    fn a_forwarder_node_readmitting_a_linked_slot_moves_its_tasks() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(1, NoopProbe);
        let instance = InstanceId(1);
        node.admit(0, 0, 10);
        node.heard(0, 10, Message::InstanceCreated { instance });
        node.heard(1, 1, Message::CreateInstance);
        let tasks = vec![TaskSpec::sleep(7, 0)];
        node.heard(1, 1, Message::Submit { instance, tasks });
        node.outbox.clear();
        node.admit(2, 0, 12);
        node.heard(3, 12, Message::InstanceCreated { instance });
        let want = [(12, "CreateInstance"), (12, "Submit")];
        assert_eq!(sent(&mut node.outbox), want);
        let news: Vec<_> = node.link_news.drain(..).collect();
        assert_eq!(news, [(0, true), (0, true)]);
    }

    /// The node's deadline is its machine's: at it, a task whose executor
    /// went silent is replayed, and the executor, freed of it, is told.
    #[test]
    fn a_dispatcher_node_replays_at_its_deadline() {
        let config = DispatcherConfig {
            replay: ReplayPolicy {
                timeout_slack_us: 100,
                ..ReplayPolicy::default()
            },
            ..DispatcherConfig::default()
        };
        let mut node: DispatcherNode<u8> = DispatcherNode::new(config, NoopProbe);
        node.heard(0, 1, register(1));
        node.heard(0, 2, Message::CreateInstance);
        let (instance, tasks) = (InstanceId(1), vec![TaskSpec::sleep(7, 0)]);
        node.heard(0, 2, Message::Submit { instance, tasks });
        let (executor, key) = (ExecutorId(1), falkon_proto::message::NotifyKey(1));
        node.heard(10, 1, Message::GetWork { executor, key });
        node.outbox.clear();
        assert_eq!(node.next_deadline(), Some(110));
        node.on_deadline(110);
        assert_eq!(node.machine().stats().retries, 1);
        assert_eq!(sent(&mut node.outbox), [(1, "Notify")]);
    }

    /// A link that closes has its tasks sent on to a live slot at once.
    #[test]
    fn a_forwarder_node_sends_a_closed_link_s_tasks_on_at_once() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(2, NoopProbe);
        let instance = InstanceId(1);
        for (d, at) in [(0, 10), (1, 11)] {
            node.admit(0, d, at);
            node.heard(0, at, Message::InstanceCreated { instance });
        }
        node.heard(1, 1, Message::CreateInstance);
        let tasks = vec![TaskSpec::sleep(7, 0)];
        node.heard(1, 1, Message::Submit { instance, tasks });
        node.outbox.clear();
        node.closed(2, 10);
        assert_eq!(sent(&mut node.outbox), [(11, "Submit")]);
    }

    /// A client that comes back on a new endpoint is answered there: its
    /// fetch binds its instance, and results go where it now is.
    #[test]
    fn a_forwarder_node_answers_a_client_where_it_reconnected() {
        let mut node: ForwarderNode<u8> = ForwarderNode::new(1, NoopProbe);
        let instance = InstanceId(1);
        node.admit(0, 0, 10);
        node.heard(0, 10, Message::InstanceCreated { instance });
        node.heard(1, 1, Message::CreateInstance);
        let tasks = vec![TaskSpec::sleep(7, 0)];
        node.heard(1, 1, Message::Submit { instance, tasks });
        node.closed(2, 1);
        node.heard(3, 2, Message::GetResults { instance });
        node.outbox.clear();
        let results = vec![TaskResult::success(falkon_proto::task::TaskId(7))];
        node.heard(4, 10, Message::Results { results });
        assert_eq!(sent(&mut node.outbox), [(10, "ResultsAck"), (2, "Results")]);
    }
}
