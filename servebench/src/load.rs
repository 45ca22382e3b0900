//! The closed-loop load generator: each connection sends its next
//! request only after the previous reply arrived, pulling requests in
//! generated order from one shared stream.

use std::sync::Mutex;
use std::time::Instant;

use crate::check::Checker;
use crate::daemon::Connection;
use crate::gen::Generator;
use crate::trace::Tracer;

/// Measured requests (in generated order) whose plans feed the
/// modelled-latency geomean. A fixed prefix keeps that metric a pure
/// function of the seed, however many requests a run gets through.
pub const MODEL_PREFIX: u64 = 512;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send to full reply read, in ms.
    pub latency_ms: f64,
    /// The request's op class.
    pub class: &'static str,
    /// Position of the request in the generated stream.
    pub index: u64,
}

/// What one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Wall clock from the first send to the last reply, in s.
    pub elapsed_s: f64,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// Latencies of the requests with a stream index below `limit`.
    pub fn prefix_latencies_ms(&self, limit: u64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.index < limit)
            .map(|s| s.latency_ms)
            .collect()
    }
}

/// Drives `conns` in a closed loop for `seconds`, checking every reply.
/// With a `tracer`, every request is traced (spans with the request's
/// index as id).
pub fn closed_loop(
    conns: &mut [Connection],
    gen: &mut Generator,
    checker: &mut Checker,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let stream = Mutex::new((gen, 0u64));
    let checker = Mutex::new(checker);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (stream, checker) = (&stream, &checker);
                scope.spawn(move || -> Result<(Vec<Sample>, Option<Tracer>), String> {
                    let mut samples = Vec::new();
                    let mut spans = epoch.map(Tracer::new);
                    while start.elapsed().as_secs_f64() < seconds {
                        let (request, index) = {
                            let mut s = stream.lock().expect("request stream lock");
                            let index = s.1;
                            s.1 += 1;
                            (s.0.next_request(), index)
                        };
                        let root = spans
                            .as_mut()
                            .map(|t| t.open(index, "client.request", None));
                        let t0 = Instant::now();
                        let send = spans.as_mut().map(|t| t.open(index, "client.send", root));
                        conn.send(&request.line).map_err(|e| format!("send: {e}"))?;
                        if let (Some(t), Some(span)) = (spans.as_mut(), send) {
                            t.close(span);
                        }
                        let receive = spans
                            .as_mut()
                            .map(|t| t.open(index, "client.receive", root));
                        let reply = conn.receive().map_err(|e| format!("receive: {e}"))?;
                        if let (Some(t), Some(span)) = (spans.as_mut(), receive) {
                            t.close(span);
                        }
                        samples.push(Sample {
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            class: request.expect.class(),
                            index,
                        });
                        let check = spans.as_mut().map(|t| t.open(index, "client.check", root));
                        checker.lock().expect("checker lock").check(
                            &request,
                            reply,
                            index < MODEL_PREFIX,
                        );
                        if let Some(t) = spans.as_mut() {
                            t.close(check.expect("traced check span"));
                            t.close(root.expect("traced root span"));
                        }
                    }
                    Ok((samples, spans))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut phase = Phase {
        samples: Vec::new(),
        elapsed_s: start.elapsed().as_secs_f64(),
    };
    let mut merged = Vec::new();
    for outcome in outcomes {
        let (samples, spans) = outcome?;
        phase.samples.extend(samples);
        merged.extend(spans);
    }
    if let Some(tracer) = tracer {
        for spans in merged {
            tracer.absorb(spans);
        }
    }
    Ok(phase)
}
