(* Topology-aware assignment of sites to execution domains.

   Cross-shard messages are what the parallel engine pays for (mailbox
   push + barrier-deferred delivery), and almost all traffic is per-item:
   sync broadcasts, AV circulation and 2PC rounds all run over an item's
   subscriber set. So the goal is to co-locate each item's base with as
   many of its subscribers as a balanced split allows. Subscriber sets
   are hash-scattered (not contiguous), so the assignment works from the
   actual sets: a greedy pass places each site on the domain where it
   already has the most co-subscribers, under a hard per-domain cap that
   keeps the shards balanced.

   The result is a pure function of (topology, n_domains) — no RNG, no
   iteration-order dependence — so every run of a seeded configuration
   shards identically. *)

type t = {
  n_domains : int;
  domain_of : int array;
  sites_of : int array array;
  cross_items : int;
}

let n_domains t = t.n_domains

let domain_of t site =
  if site < 0 || site >= Array.length t.domain_of then
    invalid_arg "Placement.domain_of: site out of range";
  t.domain_of.(site)

let sites_of t domain =
  if domain < 0 || domain >= t.n_domains then
    invalid_arg "Placement.sites_of: domain out of range";
  t.sites_of.(domain)

let cross_items t = t.cross_items

let create topology ~n_domains ~items =
  let n_sites = Topology.n_sites topology in
  if n_domains < 1 then invalid_arg "Placement.create: n_domains must be >= 1";
  let n_domains = Stdlib.min n_domains n_sites in
  if n_domains = 1 then
    (* One domain owns everything: skip the greedy pass, which walks every
       item's subscriber set per site (quadratic under full replication). *)
    {
      n_domains;
      domain_of = Array.make n_sites 0;
      sites_of = [| Array.init n_sites Fun.id |];
      cross_items = 0;
    }
  else
  (* Per-item subscriber arrays and the reverse index: which items each
     site subscribes to. Built once; the greedy pass below only walks
     these. *)
  let subs = Array.of_list (List.map (fun item ->
      Array.of_list (Topology.subscribers topology ~item)) items)
  in
  let site_items = Array.make n_sites [] in
  Array.iteri
    (fun ix ss -> Array.iter (fun s -> site_items.(s) <- ix :: site_items.(s)) ss)
    subs;
  let domain_of = Array.make n_sites (-1) in
  let load = Array.make n_domains 0 in
  (* Hard cap so no domain ends up with more than its balanced share
     (remainder spread over the lowest-numbered domains). *)
  let cap = Array.init n_domains (fun d ->
      (n_sites / n_domains) + if d < n_sites mod n_domains then 1 else 0)
  in
  let affinity = Array.make n_domains 0 in
  for s = 0 to n_sites - 1 do
    Array.fill affinity 0 n_domains 0;
    List.iter
      (fun ix ->
        Array.iter
          (fun peer ->
            let d = domain_of.(peer) in
            if d >= 0 then affinity.(d) <- affinity.(d) + 1)
          subs.(ix))
      site_items.(s);
    (* Best open domain: most co-subscribers, then least loaded, then
       lowest index — every tie-break deterministic. *)
    let best = ref (-1) in
    for d = 0 to n_domains - 1 do
      if load.(d) < cap.(d) then
        let better =
          !best < 0
          || affinity.(d) > affinity.(!best)
          || (affinity.(d) = affinity.(!best) && load.(d) < load.(!best))
        in
        if better then best := d
    done;
    domain_of.(s) <- !best;
    load.(!best) <- load.(!best) + 1
  done;
  let sites_of =
    Array.init n_domains (fun d ->
        let out = Array.make load.(d) 0 in
        let k = ref 0 in
        for s = 0 to n_sites - 1 do
          if domain_of.(s) = d then begin
            out.(!k) <- s;
            incr k
          end
        done;
        out)
  in
  let cross_items =
    Array.fold_left
      (fun acc ss ->
        match Array.length ss with
        | 0 | 1 -> acc
        | _ ->
            let d0 = domain_of.(ss.(0)) in
            if Array.exists (fun s -> domain_of.(s) <> d0) ss then acc + 1 else acc)
      0 subs
  in
  { n_domains; domain_of; sites_of; cross_items }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d domains over %d sites (%d cross-domain items)" t.n_domains
    (Array.length t.domain_of) t.cross_items;
  Array.iteri
    (fun d sites ->
      Format.fprintf ppf "@,  domain %d: %d sites" d (Array.length sites))
    t.sites_of;
  Format.fprintf ppf "@]"
