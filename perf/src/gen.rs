//! Seeded generation: everything a deployment receives — payload bytes, key
//! order, where the forbidden attempts fall — is a function of `--seed`, and
//! every generated op comes with the one result that is correct for it.

use peats::TupleSpace;
use peats_policy::OpCall;
use peats_tuplespace::{CasOutcome, Field, Template, Tuple, Value};

/// Process ids of the two closed-loop clients.
pub const CLIENT_PIDS: [u64; 2] = [101, 102];
/// Process ids of the takers `cycle.local` parks on quiet channels.
pub const PARKED_PIDS: [u64; 4] = [201, 202, 203, 204];
/// Background tuples every deployment is preloaded with, and the channels
/// (distinct leading values) they are spread over.
pub const BACKGROUND_TUPLES: usize = 2000;
pub const BACKGROUND_CHANNELS: usize = 64;
/// One op in this many is a forbidden attempt that must come back `Denied`.
pub const FORBIDDEN_EVERY: u32 = 32;

/// SplitMix64: small, seedable, and good enough to make payloads and key
/// orders that differ between seeds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for stream `lane` of the same seed.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Out(Tuple),
    Cas(Template, Tuple),
    Inp(Template),
    Rdp(Template),
}

/// The one correct result of an [`Op`].
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `out` returns `Ok(())`.
    Done,
    /// `cas` inserts.
    Inserted,
    /// `rdp`/`inp` returns exactly this tuple.
    Found(Tuple),
    /// The policy refuses the op.
    Denied,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    pub op: Op,
    pub expect: Expect,
}

/// What a deployment answered, reduced to what the checker compares.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Done,
    Inserted,
    Tuple(Option<Tuple>),
    CasFound(Tuple),
    Denied,
    Failed(String),
}

impl Outcome {
    pub fn satisfies(&self, expect: &Expect) -> bool {
        match (self, expect) {
            (Outcome::Done, Expect::Done)
            | (Outcome::Inserted, Expect::Inserted)
            | (Outcome::Denied, Expect::Denied) => true,
            (Outcome::Tuple(Some(got)), Expect::Found(want)) => got == want,
            _ => false,
        }
    }
}

fn settle<T>(r: peats::SpaceResult<T>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    match r {
        Ok(v) => ok(v),
        Err(peats::SpaceError::Denied(_)) => Outcome::Denied,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

impl Op {
    /// Issues the op through a client handle.
    pub fn run<H: TupleSpace>(self, h: &H) -> Outcome {
        match self {
            Op::Out(t) => settle(h.out(t), |()| Outcome::Done),
            Op::Cas(tmpl, t) => settle(h.cas(&tmpl, t), |o| match o {
                CasOutcome::Inserted => Outcome::Inserted,
                CasOutcome::Found(t) => Outcome::CasFound(t),
            }),
            Op::Inp(tmpl) => settle(h.inp(&tmpl), Outcome::Tuple),
            Op::Rdp(tmpl) => settle(h.rdp(&tmpl), Outcome::Tuple),
        }
    }

    /// The same op as the wire/service layers take it.
    pub fn to_call(&self) -> OpCall<'static> {
        match self {
            Op::Out(t) => OpCall::out(t.clone()),
            Op::Cas(tmpl, t) => OpCall::cas(tmpl.clone(), t.clone()),
            Op::Inp(tmpl) => OpCall::inp(tmpl.clone()),
            Op::Rdp(tmpl) => OpCall::rdp(tmpl.clone()),
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(self, Op::Rdp(_))
    }
}

pub fn pid_value(pid: u64) -> Value {
    Value::Int(pid as i64)
}

fn exact(v: impl Into<Value>) -> Field {
    Field::exact(v)
}

/// `<tag, *, *, *>` / `<tag, *, *>`: everything on one channel.
pub fn channel_template(tag: &str, arity: usize) -> Template {
    let mut fields = vec![exact(tag)];
    fields.resize(arity, Field::any());
    Template::new(fields)
}

pub fn background_tag(channel: usize) -> String {
    format!("BG{channel:02}")
}

/// The background tuples client `client` preloads: its half of
/// [`BACKGROUND_TUPLES`], round-robin over the channels, 16 seeded bytes
/// each.
pub fn background(seed: u64, client: usize) -> Vec<Tuple> {
    let mut rng = Rng::lane(seed, 0xB6 + client as u64);
    let me = CLIENT_PIDS[client];
    (0..BACKGROUND_TUPLES)
        .filter(|i| i % CLIENT_PIDS.len() == client)
        .map(|i| {
            Tuple::new(vec![
                Value::from(background_tag(i % BACKGROUND_CHANNELS)),
                pid_value(me),
                Value::from(i),
                Value::Bytes(rng.bytes(16)),
            ])
        })
        .collect()
}

/// The forbidden attempt: an `inp` of tuples `owner` authored, issued by
/// somebody else — refused whatever the space holds.
pub fn forbidden_attempt(owner: u64) -> Step {
    Step {
        op: Op::Inp(Template::new(vec![
            exact("JOB"),
            exact(pid_value(owner)),
            Field::any(),
            Field::any(),
        ])),
        expect: Expect::Denied,
    }
}

/// Where the forbidden attempts fall: one per block of [`FORBIDDEN_EVERY`]
/// ops, at a position drawn per block.
#[derive(Clone, Debug)]
struct ForbiddenClock {
    pos: u32,
    forbidden_at: u32,
}

impl ForbiddenClock {
    fn new(rng: &mut Rng) -> Self {
        ForbiddenClock {
            pos: 0,
            forbidden_at: rng.below(FORBIDDEN_EVERY),
        }
    }

    /// `true` when the next op is the block's forbidden attempt.
    fn tick(&mut self, rng: &mut Rng) -> bool {
        let forbidden = self.pos == self.forbidden_at;
        self.pos += 1;
        if self.pos == FORBIDDEN_EVERY {
            *self = ForbiddenClock::new(rng);
        }
        forbidden
    }
}

/// Which ops a stream is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `out(JOB)` → `cas(LOCK)` → `inp(LOCK)` → `inp(JOB)` per key.
    Cycle,
    /// Nine `rdp` of the client's hot tuple to one ordered op, the ordered
    /// ops alternating `out(JOB)` / `inp(JOB)`.
    ReadMostly,
}

/// One client's endless op stream.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: Rng,
    mix: Mix,
    payload_len: usize,
    me: u64,
    other: u64,
    client: u64,
    forbidden: ForbiddenClock,
    /// Position in the mix's own pattern.
    phase: u32,
    key: i64,
    job: Option<Tuple>,
    hot: Tuple,
}

impl Stream {
    pub fn new(mix: Mix, payload_len: usize, seed: u64, client: usize) -> Self {
        let mut rng = Rng::lane(seed, client as u64);
        let me = CLIENT_PIDS[client];
        let hot = Tuple::new(vec![
            Value::from("HOT"),
            pid_value(me),
            Value::Int(0),
            Value::Bytes(rng.bytes(payload_len)),
        ]);
        let forbidden = ForbiddenClock::new(&mut rng);
        Stream {
            rng,
            mix,
            payload_len,
            me,
            other: CLIENT_PIDS[1 - client],
            client: client as u64,
            forbidden,
            phase: 0,
            key: 0,
            job: None,
            hot,
        }
    }

    /// Ops to run once before the stream (untimed).
    pub fn prologue(&self) -> Vec<Step> {
        match self.mix {
            Mix::Cycle => Vec::new(),
            Mix::ReadMostly => vec![Step {
                op: Op::Out(self.hot.clone()),
                expect: Expect::Done,
            }],
        }
    }

    /// Ops to run once after the stream has stopped at a boundary: they put
    /// the space back to its preloaded contents.
    pub fn epilogue(&self) -> Vec<Step> {
        match self.mix {
            Mix::Cycle => Vec::new(),
            Mix::ReadMostly => vec![Step {
                op: Op::Inp(Template::exact(&self.hot)),
                expect: Expect::Found(self.hot.clone()),
            }],
        }
    }

    /// `true` when the client holds nothing in the space that the next ops
    /// would have to remove.
    pub fn at_boundary(&self) -> bool {
        self.job.is_none()
    }

    fn job_template(&self) -> Template {
        Template::new(vec![
            exact("JOB"),
            exact(pid_value(self.me)),
            exact(self.key),
            Field::any(),
        ])
    }

    fn lock(&self) -> Tuple {
        Tuple::new(vec![
            Value::from("LOCK"),
            Value::Int(self.key),
            pid_value(self.me),
        ])
    }

    fn new_job(&mut self) -> Tuple {
        // Keys of the two clients never collide: a LOCK tuple is keyed by
        // `k` alone, and a collision would turn a `cas` insert into a find.
        self.key = ((self.rng.next_u64() >> 17) << 1 | self.client) as i64;
        let job = Tuple::new(vec![
            Value::from("JOB"),
            pid_value(self.me),
            Value::Int(self.key),
            Value::Bytes(self.rng.bytes(self.payload_len)),
        ]);
        self.job = Some(job.clone());
        job
    }

    fn take_job(&mut self) -> Step {
        let job = self.job.take().expect("a job is outstanding");
        Step {
            op: Op::Inp(self.job_template()),
            expect: Expect::Found(job),
        }
    }

    fn regular(&mut self) -> Step {
        match self.mix {
            Mix::Cycle => {
                let step = match self.phase {
                    0 => Step {
                        op: Op::Out(self.new_job()),
                        expect: Expect::Done,
                    },
                    1 => Step {
                        op: Op::Cas(
                            Template::new(vec![exact("LOCK"), exact(self.key), Field::formal("x")]),
                            self.lock(),
                        ),
                        expect: Expect::Inserted,
                    },
                    2 => Step {
                        op: Op::Inp(Template::exact(&self.lock())),
                        expect: Expect::Found(self.lock()),
                    },
                    _ => self.take_job(),
                };
                self.phase = (self.phase + 1) % 4;
                step
            }
            Mix::ReadMostly => {
                let step = match self.phase {
                    9 => Step {
                        op: Op::Out(self.new_job()),
                        expect: Expect::Done,
                    },
                    19 => self.take_job(),
                    _ => Step {
                        op: Op::Rdp(Template::exact(&self.hot)),
                        expect: Expect::Found(self.hot.clone()),
                    },
                };
                self.phase = (self.phase + 1) % 20;
                step
            }
        }
    }
}

impl Iterator for Stream {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        Some(if self.forbidden.tick(&mut self.rng) {
            forbidden_attempt(self.other)
        } else {
            self.regular()
        })
    }
}

/// The seeded task ids of the hand-off workload, with the positions of A's
/// forbidden attempts.
#[derive(Clone, Debug)]
pub struct HandoffIds {
    rng: Rng,
    forbidden: ForbiddenClock,
}

/// What A does next in the hand-off workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffStep {
    RoundTrip(i64),
    Forbidden,
}

/// The task id that tells B to stop after answering it.
pub const HANDOFF_STOP: i64 = -1;

impl HandoffIds {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::lane(seed, 0x4A);
        let forbidden = ForbiddenClock::new(&mut rng);
        HandoffIds { rng, forbidden }
    }
}

impl Iterator for HandoffIds {
    type Item = HandoffStep;

    fn next(&mut self) -> Option<HandoffStep> {
        Some(if self.forbidden.tick(&mut self.rng) {
            HandoffStep::Forbidden
        } else {
            HandoffStep::RoundTrip((self.rng.next_u64() >> 1) as i64)
        })
    }
}

/// `<tag, from, to, id>`: a TASK from A to B or the DONE that answers it.
pub fn mail(tag: &str, from: u64, to: u64, id: i64) -> Tuple {
    Tuple::new(vec![
        Value::from(tag),
        pid_value(from),
        pid_value(to),
        Value::Int(id),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(mix: Mix, seed: u64, n: usize) -> Vec<Step> {
        Stream::new(mix, 16, seed, 0).take(n).collect()
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        for mix in [Mix::Cycle, Mix::ReadMostly] {
            assert_eq!(first(mix, 7, 500), first(mix, 7, 500));
            assert_ne!(first(mix, 7, 500), first(mix, 8, 500));
        }
        assert_eq!(background(3, 1), background(3, 1));
        assert_ne!(background(3, 1), background(4, 1));
        let ids = |seed| HandoffIds::new(seed).take(200).collect::<Vec<_>>();
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));
    }

    #[test]
    fn one_op_in_32_is_forbidden_and_the_seed_moves_it() {
        let positions = |seed| -> Vec<usize> {
            first(Mix::Cycle, seed, 320)
                .iter()
                .enumerate()
                .filter(|(_, s)| s.expect == Expect::Denied)
                .map(|(i, _)| i)
                .collect()
        };
        let a = positions(1);
        assert_eq!(a.len(), 10);
        for (block, pos) in a.iter().enumerate() {
            assert_eq!(pos / 32, block, "one forbidden attempt per block");
        }
        assert_ne!(a, positions(2));
    }

    #[test]
    fn background_is_split_between_the_clients() {
        let total: usize = (0..2).map(|c| background(1, c).len()).sum();
        assert_eq!(total, BACKGROUND_TUPLES);
    }

    #[test]
    fn clients_never_share_a_key() {
        let keys = |client| -> Vec<Value> {
            Stream::new(Mix::Cycle, 16, 9, client)
                .take(400)
                .filter_map(|s| match s.op {
                    Op::Out(t) => t.get(2).cloned(),
                    _ => None,
                })
                .collect()
        };
        let (a, b) = (keys(0), keys(1));
        assert!(a.iter().all(|k| !b.contains(k)));
    }
}
