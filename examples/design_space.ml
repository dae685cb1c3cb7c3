(* Design-space exploration: pick a cache configuration by security AND
   performance, entirely at design time - the use case the paper's
   abstract promises ("without the need for simulation or taping out a
   chip"), with the simulator used only to price the performance side.

   Run with: dune exec examples/design_space.exe *)

open Cachesec_cache
open Cachesec_analysis
open Cachesec_experiments

(* A designer's shortlist: candidate configurations for a 32 KB L1. *)
let candidates =
  [
    ("SA 8-way (baseline)", Spec.paper_sa);
    ("SA 16-way", Spec.Sa { ways = 16; policy = Policy.Random });
    ("Nomo 2/8", Spec.paper_nomo);
    ("Newcache k=4", Spec.paper_newcache);
    ("RP 8-way", Spec.paper_rp);
    ("RF 8-way w=64", Spec.paper_rf);
  ]

let worst_pas spec =
  (* The designer cares about the worst attack class the cache still
     defends poorly; Type 3 is excluded because only RF defends it and
     its prerequisite is priced separately by pre-PAS. *)
  List.fold_left
    (fun acc attack -> Float.max acc (Attack_models.pas attack spec ()))
    0.
    [ Attack_type.Evict_and_time; Attack_type.Prime_and_probe;
      Attack_type.Flush_and_reload ]

let () =
  Printf.printf
    "Scoring a designer's shortlist: worst-case PAS (Types 1/2/4),\n\
     cleaning resistance (pre-PAS at k = 32), and victim hit rate on a\n\
     Zipf workload:\n\n";
  Printf.printf "  %-22s %12s %14s %10s\n" "candidate" "worst PAS"
    "pre-PAS @ 32" "zipf hits";
  List.iter
    (fun (name, spec) ->
      let pas = worst_pas spec in
      let prepas = Prepas.for_spec spec ~k:32 in
      let hits =
        Performance.measure ~accesses:30000 spec
          (Workload.Zipf { base = 0; range = 2048; exponent = 1.0 })
      in
      Printf.printf "  %-22s %12s %14s %10.3f\n" name
        (Cachesec_report.Table.fmt_prob pas)
        (Cachesec_report.Table.fmt_prob prepas)
        hits)
    candidates;
  Printf.printf
    "\nReading: Newcache and RP dominate the shortlist - near-zero PAS on\n\
     the three interference attacks, hard to clean (Newcache) and no\n\
     measurable hit-rate cost versus the conventional baseline. Raising\n\
     SA associativity helps only linearly (PAS = 1/w); RF buys its unique\n\
     collision defence at a visible zipf hit-rate cost.\n"
