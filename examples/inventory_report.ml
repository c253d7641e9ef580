(* A trading day at retailer site 1: Poisson customer orders drain stock
   under Delay Update while the maker keeps producing; at close of business
   the local database answers inventory queries (one fold over the site's
   replica - no network involved, the whole point of autonomy).

   Run with: dune exec examples/inventory_report.exe *)

open Avdb_sim
open Avdb_store
open Avdb_core
open Avdb_workload

let () =
  let products =
    List.init 12 (fun i ->
        Product.regular (Printf.sprintf "sku%02d" i) ~initial_amount:(60 + (i * 15)))
  in
  let config =
    {
      Config.default with
      Config.products;
      sync_interval = Some (Time.of_ms 50.);
      prefetch_low = Some 8;
    }
  in
  let cluster = Cluster.create config in
  let retailer = Cluster.site cluster 1 in
  let maker = Cluster.site cluster 0 in
  let engine = Cluster.engine cluster in

  (* Customer orders: hot items get most of the traffic. *)
  let items = Array.of_list (List.mapi (fun i p -> (p.Product.name, 12 - i)) products) in
  let orders =
    Order_stream.create ~items ~mean_interarrival:(Time.of_ms 40.) ~max_quantity:6 ~seed:9
  in
  let sold = ref 0 and missed = ref 0 in
  let n_orders =
    Order_stream.schedule orders ~engine ~until:(Time.of_sec 60.) (fun order ->
        Site.submit_update retailer ~item:order.Order_stream.item
          ~delta:(-order.Order_stream.quantity) (fun r ->
            if Update.is_applied r then sold := !sold + order.Order_stream.quantity
            else incr missed))
  in
  (* The maker restocks every 100ms round-robin, roughly matching the
     expected demand of ~90 units/s. *)
  let skus = Array.of_list (List.map (fun p -> p.Product.name) products) in
  for k = 0 to 599 do
    ignore
      (Engine.schedule_at engine
         ~at:(Time.mul (Time.of_ms 100.) (float_of_int k))
         (fun () ->
           Site.submit_update maker ~item:skus.(k mod Array.length skus) ~delta:10 (fun _ -> ())))
  done;

  Cluster.run cluster;
  Cluster.flush_all_syncs cluster;

  Printf.printf "Trading day done: %d orders, %d units sold, %d orders missed,\n" n_orders
    !sold !missed;
  Printf.printf "%d correspondences used (most sales were AV-local).\n\n"
    (Cluster.total_correspondences cluster);

  let stock = Database.table (Site.database retailer) Site.stock_table in
  (* One pass over the local replica: (sku, amount) in key order. *)
  let amount = Schema.index (Table.schema stock) "amount" in
  let rows =
    Table.fold stock ~init:[] ~f:(fun acc key row -> (key, Value.as_int row.(amount)) :: acc)
    |> List.rev
  in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 rows in
  let n_skus = List.length rows in

  print_endline "Inventory report (queried on the retailer's local replica):";
  Printf.printf "  total units on hand: %d\n" total;
  Printf.printf "  distinct SKUs:       %d\n" n_skus;
  if n_skus > 0 then
    Printf.printf "  average per SKU:     %.1f\n" (float_of_int total /. float_of_int n_skus);

  (* Ascending by amount, ties by SKU. *)
  let by_amount =
    List.stable_sort
      (fun (ka, a) (kb, b) -> match compare a b with 0 -> String.compare ka kb | c -> c)
      rows
  in
  let print_row (key, n) = Printf.printf "    %-6s %3d units\n" key n in
  print_endline "\n  Low-stock SKUs (amount < 40, worst first):";
  List.iter print_row (List.filter (fun (_, n) -> n < 40) by_amount);

  print_endline "\n  Top 3 best-stocked SKUs:";
  List.iteri (fun i r -> if i < 3 then print_row r) (List.rev by_amount);

  print_endline "\n  AV standing at the retailer (available/held):";
  let av = Site.av_table retailer in
  List.iter
    (fun p ->
      let item = p.Product.name in
      Printf.printf "    %-6s %3d/%d\n" item
        (Avdb_av.Av_table.available av ~item)
        (Avdb_av.Av_table.held av ~item))
    products;

  match Cluster.check_invariants cluster with
  | Ok () -> print_endline "\nInvariants hold after the day."
  | Error e -> Printf.printf "\nINVARIANT VIOLATION: %s\n" e
