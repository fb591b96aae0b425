//! On-chain event logs.
//!
//! Events are the audit trail the governance layer exposes: every token
//! movement, contract state transition and workload lifecycle step emits
//! one, and experiment E1 counts them to show the full Fig. 2 interaction
//! sequence is observable on-chain.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// A single emitted event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Dotted topic, e.g. `"erc20.transfer"` or `"workload.completed"`.
    pub topic: String,
    /// Human/machine-readable payload.
    pub data: String,
    /// Block height, filled in when the event is included in a block.
    pub block_height: u64,
    /// Index of the emitting transaction within its block.
    pub tx_index: u32,
}

impl Event {
    /// Creates an event pending block inclusion.
    pub fn new(topic: impl Into<String>, data: impl Into<String>) -> Event {
        Event {
            topic: topic.into(),
            data: data.into(),
            block_height: 0,
            tx_index: 0,
        }
    }

    /// Convenience constructor used by the token modules.
    pub fn token(topic: &str, data: String) -> Event {
        Event::new(topic, data)
    }
}

impl Encode for Event {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.topic);
        enc.put_str(&self.data);
        enc.put_u64(self.block_height);
        enc.put_u32(self.tx_index);
    }
}

impl Decode for Event {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Event {
            topic: dec.get_str()?,
            data: dec.get_str()?,
            block_height: dec.get_u64()?,
            tx_index: dec.get_u32()?,
        })
    }
}

/// Collects events emitted during one transaction's execution.
#[derive(Default, Debug)]
pub struct EventSink {
    events: Vec<Event>,
}

impl EventSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits an event.
    pub fn emit(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Events collected so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Drops all collected events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_collects_and_clears() {
        let mut sink = EventSink::new();
        sink.emit(Event::new("a.b", "x"));
        sink.emit(Event::new("c.d", "y"));
        assert_eq!(sink.events().len(), 2);
        sink.clear();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn event_codec_roundtrip() {
        let e = Event {
            topic: "workload.completed".into(),
            data: "id=7".into(),
            block_height: 12,
            tx_index: 3,
        };
        assert_eq!(Event::from_bytes(&e.to_bytes()).unwrap(), e);
    }
}
