let rec mem (x : int) = function [] -> false | y :: l -> x = y || mem x l
