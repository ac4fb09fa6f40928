//! Wire-message → state-machine-event mapping, shared by every driver.
//!
//! The in-process runtime, the TCP runtime, and the simulator all translate
//! [`Message`]s into [`DispatcherEvent`]s / [`ExecutorEvent`]s /
//! [`ClientEvent`]s the same way; keeping the mapping here means a new
//! message variant cannot be handled inconsistently across drivers.

use crate::client::ClientEvent;
use crate::dispatcher::DispatcherEvent;
use crate::executor::ExecutorEvent;
use falkon_proto::message::Message;

/// Interpret a message arriving at the dispatcher, whichever peer sent it
/// (a socket server learns a connection's role only from what it sends).
/// Returns `None` for messages a dispatcher never legitimately receives.
pub fn message_to_dispatcher_event(msg: Message) -> Option<DispatcherEvent> {
    Some(match msg {
        Message::Register { executor, .. } => DispatcherEvent::Register { executor },
        Message::GetWork { executor, key } => DispatcherEvent::GetWork { executor, key },
        Message::Result { executor, results } => DispatcherEvent::Result { executor, results },
        Message::Deregister { executor } => DispatcherEvent::Deregister { executor },
        Message::CreateInstance => DispatcherEvent::CreateInstance,
        Message::Submit { instance, tasks } => DispatcherEvent::Submit { instance, tasks },
        Message::GetResults { instance } => DispatcherEvent::GetResults { instance },
        Message::DestroyInstance { instance } => DispatcherEvent::DestroyInstance { instance },
        Message::StatusPoll => DispatcherEvent::StatusPoll,
        _ => return None,
    })
}

/// The dispatcher-bound messages that come from executors; the rest of what
/// [`message_to_dispatcher_event`] accepts comes from clients.
fn sent_by_executor(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Register { .. }
            | Message::GetWork { .. }
            | Message::Result { .. }
            | Message::Deregister { .. }
    )
}

/// Interpret a message arriving at the dispatcher from an executor.
/// Returns `None` for messages executors never legitimately send.
pub fn executor_message_to_dispatcher_event(msg: Message) -> Option<DispatcherEvent> {
    if sent_by_executor(&msg) {
        message_to_dispatcher_event(msg)
    } else {
        None
    }
}

/// Interpret a message arriving at the dispatcher from a client.
/// Returns `None` for messages clients never legitimately send.
pub fn client_message_to_dispatcher_event(msg: Message) -> Option<DispatcherEvent> {
    if sent_by_executor(&msg) {
        None
    } else {
        message_to_dispatcher_event(msg)
    }
}

/// Interpret a message arriving at an executor from the dispatcher.
/// Returns `None` for messages executors never legitimately receive.
pub fn message_to_executor_event(msg: Message) -> Option<ExecutorEvent> {
    Some(match msg {
        Message::RegisterAck { .. } => ExecutorEvent::RegisterAcked,
        Message::Notify { key } => ExecutorEvent::Notified { key },
        Message::Work { tasks } => ExecutorEvent::WorkReceived { tasks },
        Message::ResultAck { piggybacked } => ExecutorEvent::ResultAcked { piggybacked },
        _ => return None,
    })
}

/// Interpret a message arriving at a client from the dispatcher.
/// Returns `None` for messages clients never legitimately receive.
pub fn message_to_client_event(msg: Message) -> Option<ClientEvent> {
    Some(match msg {
        Message::InstanceCreated { instance } => ClientEvent::InstanceCreated { instance },
        Message::SubmitAck { accepted, .. } => ClientEvent::SubmitAcked { accepted },
        Message::ClientNotify { .. } => ClientEvent::ResultsReady,
        Message::Results { results } => ClientEvent::Results { results },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use falkon_proto::message::{ExecutorId, InstanceId, NotifyKey};
    use falkon_proto::task::TaskSpec;

    #[test]
    fn executor_messages_map() {
        assert!(matches!(
            executor_message_to_dispatcher_event(Message::Register {
                executor: ExecutorId(1),
                host: "h".into()
            }),
            Some(DispatcherEvent::Register { .. })
        ));
        // A dispatcher-to-executor message must not be accepted from one,
        // nor a client's.
        assert!(
            executor_message_to_dispatcher_event(Message::Notify { key: NotifyKey(1) }).is_none()
        );
        assert!(executor_message_to_dispatcher_event(Message::StatusPoll).is_none());
    }

    #[test]
    fn dispatcher_inbox_takes_either_role() {
        assert!(matches!(
            message_to_dispatcher_event(Message::Deregister {
                executor: ExecutorId(1)
            }),
            Some(DispatcherEvent::Deregister { .. })
        ));
        assert!(matches!(
            message_to_dispatcher_event(Message::StatusPoll),
            Some(DispatcherEvent::StatusPoll)
        ));
        assert!(message_to_dispatcher_event(Message::Notify { key: NotifyKey(1) }).is_none());
    }

    #[test]
    fn client_messages_map() {
        assert!(matches!(
            client_message_to_dispatcher_event(Message::Submit {
                instance: InstanceId(1),
                tasks: vec![TaskSpec::sleep(1, 0)]
            }),
            Some(DispatcherEvent::Submit { .. })
        ));
        assert!(client_message_to_dispatcher_event(Message::RegisterAck {
            executor: ExecutorId(1)
        })
        .is_none());
        // Nor an executor's message from a client.
        assert!(client_message_to_dispatcher_event(Message::Deregister {
            executor: ExecutorId(1)
        })
        .is_none());
    }

    #[test]
    fn executor_inbox_map() {
        assert!(matches!(
            message_to_executor_event(Message::Notify { key: NotifyKey(2) }),
            Some(ExecutorEvent::Notified { .. })
        ));
        assert!(message_to_executor_event(Message::CreateInstance).is_none());
    }

    #[test]
    fn client_inbox_map() {
        assert!(matches!(
            message_to_client_event(Message::InstanceCreated {
                instance: InstanceId(3)
            }),
            Some(ClientEvent::InstanceCreated { .. })
        ));
        assert!(message_to_client_event(Message::StatusPoll).is_none());
    }
}
