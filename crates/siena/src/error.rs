//! Typed errors for the TCP transport.
//!
//! Runtime conditions a caller can meaningfully react to (a broker that
//! never comes back, a full outbound queue, a lost connection) surface as
//! [`TcpError`] variants instead of panics or silently swallowed `()`s.

use std::time::Duration;

/// Failures of the TCP transport surfaced to callers.
#[derive(Debug)]
pub enum TcpError {
    /// An underlying socket operation failed.
    Io(std::io::Error),
    /// A wait (connect, subscription ack, receive) exceeded its deadline.
    Timeout(Duration),
    /// The client has given up reconnecting (retry budget exhausted) or
    /// the transport was shut down.
    Disconnected,
    /// A bounded outbound queue was full and the overflow policy is
    /// [`OverflowPolicy::DropNewest`](crate::OverflowPolicy::DropNewest) —
    /// the message was *not* enqueued.
    Backpressure,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "socket error: {e}"),
            TcpError::Timeout(d) => write!(f, "timed out after {d:?}"),
            TcpError::Disconnected => write!(f, "transport disconnected"),
            TcpError::Backpressure => write!(f, "outbound queue full; message dropped"),
        }
    }
}

impl std::error::Error for TcpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TcpError {
    fn from(e: std::io::Error) -> Self {
        TcpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let io = TcpError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(TcpError::Timeout(Duration::from_secs(1))
            .to_string()
            .contains("1s"));
        assert!(std::error::Error::source(&TcpError::Backpressure).is_none());
    }
}
