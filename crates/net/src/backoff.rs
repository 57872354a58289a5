//! Reconnect pacing for socket transports: jittered exponential
//! backoff, deterministic given its seed.
//!
//! The connection state machine in `mqp_peer::tcp` moves a link to
//! `Backoff` whenever a connect attempt fails or an established
//! connection drops; [`Backoff::next_delay`] answers "how long until
//! the next attempt". Delays double from `base` up to `cap`, and each
//! is jittered by ±25% (a splitmix64 draw keyed off the seed and the
//! attempt number) so a hundred peers cut off by the same restart do
//! not reconnect in lock-step — the classic thundering-herd failure of
//! unjittered backoff.

use std::time::{Duration, Instant};

/// Jittered exponential backoff: `base * 2^attempt`, capped at `cap`,
/// ±25% jitter. Deterministic for a given `(seed, attempt)` pair.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

/// splitmix64 — the same tiny generator the scale workload uses for
/// pure-hash assignment; good enough to decorrelate reconnect times.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Backoff {
    /// A fresh backoff: first delay ≈ `base`, growing to ≈ `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            seed,
            attempt: 0,
        }
    }

    /// Consecutive failures so far (resets on success).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The delay before the next attempt, advancing the attempt
    /// counter. Doubling is saturating, so a long outage settles at
    /// `cap` ± jitter instead of overflowing.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20); // 2^20 * base is far past any sane cap
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .as_micros() as u64;
        // Jitter in [-25%, +25%): draw 0..=raw/2, subtract raw/4.
        let span = (raw / 2).max(1);
        let draw = splitmix64(self.seed ^ u64::from(self.attempt)) % span;
        Duration::from_micros(raw - raw / 4 + draw)
    }

    /// A connection succeeded: the next failure starts over at `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// A [`Backoff`] plus the bookkeeping every retrying resource ends up
/// reimplementing around it: "am I allowed to try yet", "how many
/// failures in a row", and "is the budget exhausted". Shared by the TCP
/// link reconnect state machine (`mqp_peer::tcp`) and the durable
/// catalog's WAL fsync/reopen path (`mqp_catalog::durable`), so the
/// pacing and give-up policy live in exactly one place.
///
/// `max_attempts == 0` means an unbounded budget: the retrier never
/// goes dead, it just keeps pacing at `cap`.
#[derive(Debug, Clone)]
pub struct Retrier {
    backoff: Backoff,
    max_attempts: u32,
    /// Next attempt no sooner than this; `None` = ready now.
    next_at: Option<Instant>,
    dead: bool,
}

impl Retrier {
    /// A fresh retrier pacing `base → cap` with the given seed and
    /// attempt budget (0 = unbounded).
    pub fn new(base: Duration, cap: Duration, seed: u64, max_attempts: u32) -> Self {
        Retrier {
            backoff: Backoff::new(base, cap, seed),
            max_attempts,
            next_at: None,
            dead: false,
        }
    }

    /// True when an attempt is allowed right now: not dead, and past
    /// the pacing deadline of the last failure.
    pub fn ready(&self) -> bool {
        !self.dead && self.next_at.is_none_or(|t| Instant::now() >= t)
    }

    /// Records a failed attempt: schedules the next one a jittered
    /// backoff delay from now, and kills the retrier when the attempt
    /// budget is exhausted. Returns `true` when dead — the caller's cue
    /// to shed whatever it was retrying for.
    pub fn failure(&mut self) -> bool {
        self.next_at = Some(Instant::now() + self.backoff.next_delay());
        if self.max_attempts > 0 && self.backoff.attempts() >= self.max_attempts {
            self.dead = true;
        }
        self.dead
    }

    /// Records a successful attempt: pacing and the attempt budget
    /// start over.
    pub fn success(&mut self) {
        self.backoff.reset();
        self.next_at = None;
        self.dead = false;
    }

    /// Budget exhausted (only with `max_attempts > 0`).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Consecutive failures so far.
    pub fn attempts(&self) -> u32 {
        self.backoff.attempts()
    }

    /// When the next attempt is allowed (`None`: right now). An event
    /// loop uses it to bound how long it may block.
    pub fn next_at(&self) -> Option<Instant> {
        self.next_at
    }

    /// Synchronous retry loop for a blocking resource (the WAL
    /// fsync/reopen path): runs `f` until it succeeds or the attempt
    /// budget dies, sleeping each backoff delay in between. Returns the
    /// last error when the budget is exhausted. Do not call with
    /// `max_attempts == 0` unless `f` is guaranteed to eventually
    /// succeed.
    pub fn run_blocking<T, E>(&mut self, mut f: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        loop {
            match f() {
                Ok(v) => {
                    self.success();
                    return Ok(v);
                }
                Err(e) => {
                    if self.failure() {
                        return Err(e);
                    }
                    if let Some(at) = self.next_at {
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                    }
                }
            }
        }
    }
}

/// Sender-side frame accounting for a socket transport, with an exact
/// identity mirroring [`NetStats::balances`](crate::NetStats::balances):
///
/// ```text
/// frames_enqueued = frames_sent + dropped_backpressure
///                 + dropped_disconnected + abandoned + queued
/// ```
///
/// where `queued` is whatever still sits in write queues at the moment
/// of observation (zero after a drained shutdown). Every frame a peer
/// hands to the transport is eventually flushed onto a socket
/// (`frames_sent`), dropped because a full write queue chose
/// drop-newest (`dropped_backpressure`), dropped because the link was
/// down past its reconnect budget (`dropped_disconnected`), or
/// abandoned in-queue when its owning peer was killed or shut down
/// (`abandoned`).
///
/// Receive-side counters (`frames_received`, `bytes_received`) do not
/// enter the identity: with real sockets, bytes in a kernel buffer at
/// the instant a peer dies are lost without any sender-side event —
/// which is exactly the gap retry watches exist to cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Frames handed to the transport for a remote peer.
    pub frames_enqueued: u64,
    /// Frames fully flushed onto a socket.
    pub frames_sent: u64,
    /// Frames dropped by a full write queue (drop-newest policy).
    pub dropped_backpressure: u64,
    /// Frames dropped because the destination link was down.
    pub dropped_disconnected: u64,
    /// Frames abandoned in write queues at kill/shutdown.
    pub abandoned: u64,
    /// Bytes flushed onto sockets (length prefixes included).
    pub bytes_sent: u64,
    /// Frames decoded off sockets.
    pub frames_received: u64,
    /// Bytes read off sockets.
    pub bytes_received: u64,
    /// Frames delivered peer-locally (self-sends never touch a socket).
    pub frames_local: u64,
    /// Successful connects (initial and re-).
    pub connects: u64,
    /// Connect attempts that failed or established links that dropped.
    pub disconnects: u64,
    /// Timeout-driven protocol retries observed by peers.
    pub retries: u64,
}

impl SocketStats {
    /// The exact sender-side accounting identity (see type docs).
    pub fn balances(&self, queued: u64) -> bool {
        self.frames_enqueued
            == self.frames_sent
                + self.dropped_backpressure
                + self.dropped_disconnected
                + self.abandoned
                + queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_resets() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(640);
        let mut b = Backoff::new(base, cap, 7);
        let mut prev = Duration::ZERO;
        for i in 0..12 {
            let d = b.next_delay();
            // Within ±25% of the uncapped-then-capped ideal.
            let ideal = base.saturating_mul(1 << i.min(20)).min(cap);
            assert!(
                d >= ideal - ideal / 4,
                "attempt {i}: {d:?} < 75% of {ideal:?}"
            );
            assert!(
                d <= ideal + ideal / 4,
                "attempt {i}: {d:?} > 125% of {ideal:?}"
            );
            if i >= 7 {
                // Past the cap the delay stops growing (modulo jitter).
                assert!(d <= cap + cap / 4);
            }
            prev = d;
        }
        assert!(prev <= cap + cap / 4);
        b.reset();
        assert_eq!(b.attempts(), 0);
        assert!(b.next_delay() <= base + base / 4);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_jittered_across_seeds() {
        let delays = |seed| {
            let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(1), seed);
            (0..6).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(delays(1), delays(1));
        assert_ne!(delays(1), delays(2), "different seeds must decorrelate");
    }

    #[test]
    fn retrier_paces_dies_and_resets() {
        let mut r = Retrier::new(Duration::from_micros(10), Duration::from_micros(100), 3, 2);
        assert!(r.ready());
        assert_eq!(r.next_at(), None);
        let before = Instant::now();
        assert!(!r.failure(), "first failure must not exhaust a 2-budget");
        assert_eq!(r.attempts(), 1);
        assert!(r.next_at().is_some_and(|t| t > before));
        assert!(r.failure(), "second failure exhausts the budget");
        assert!(r.is_dead());
        assert!(!r.ready());
        r.success();
        assert!(!r.is_dead());
        assert_eq!(r.attempts(), 0);
        assert_eq!(r.next_at(), None);
        assert!(r.ready());
        // Unbounded budget never dies.
        let mut open = Retrier::new(Duration::from_micros(1), Duration::from_micros(2), 9, 0);
        for _ in 0..50 {
            assert!(!open.failure());
        }
        assert!(!open.is_dead());
    }

    #[test]
    fn retrier_run_blocking_retries_transients_and_gives_up() {
        let mut r = Retrier::new(Duration::from_micros(1), Duration::from_micros(10), 5, 4);
        let mut calls = 0;
        let got = r.run_blocking(|| {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(got, Ok(3));
        assert_eq!(r.attempts(), 0, "success resets the budget");

        let mut always = 0;
        let got: Result<(), &str> = r.run_blocking(|| {
            always += 1;
            Err("permanent")
        });
        assert_eq!(got, Err("permanent"));
        assert_eq!(always, 4, "budget of 4 means exactly 4 attempts");
        assert!(r.is_dead());
    }

    #[test]
    fn socket_identity() {
        let mut s = SocketStats {
            frames_enqueued: 10,
            frames_sent: 6,
            dropped_backpressure: 1,
            dropped_disconnected: 2,
            abandoned: 1,
            ..SocketStats::default()
        };
        assert!(s.balances(0));
        assert!(!s.balances(1));
        s.frames_sent -= 1;
        assert!(s.balances(1));
        // Receive-side counters never enter the identity.
        s.frames_received = 99;
        s.frames_local = 3;
        assert!(s.balances(1));
    }
}
